// Package transport provides an in-process, channel-backed net.Conn
// transport. A Net is a tiny address space of listeners; its Dial and
// Listen methods plug into cluster.LiveConfig's Dialer/Listener fields,
// so a pair of nodes exchanges the exact bytes the live framing code
// produces — same Marshal, same writev gather lists, same checksums —
// without touching loopback TCP. That keeps transport-heavy suites (the
// experiment grid, the chaos drills) off the kernel's socket stack,
// where port exhaustion and TIME_WAIT noise dominate short runs, while
// still exercising every byte of the wire path above the socket.
//
// The faultnet package layers on top via faultnet.NewOver, so a chaos
// run can inject faults into in-process connections the same way it
// does into TCP ones.
package transport

import (
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"
)

// chunkCap is each direction's channel depth. A full channel applies
// backpressure to Write, standing in for the kernel socket buffer.
const chunkCap = 128

// Net is one in-process address space: listeners register under string
// addresses and dials resolve against them. All methods are safe for
// concurrent use. The zero value is not usable; call NewNet.
type Net struct {
	mu        sync.Mutex
	listeners map[string]*listener
	nextAddr  int
}

// NewNet builds an empty in-process network.
func NewNet() *Net {
	return &Net{listeners: make(map[string]*listener)}
}

// addrT is an in-process address.
type addrT string

func (a addrT) Network() string { return "inproc" }
func (a addrT) String() string  { return string(a) }

// Listen binds a listener. An empty addr or any ":0" port request
// (":0", "127.0.0.1:0", ...) auto-assigns a fresh "inproc-N" name,
// which the caller discovers via Addr — mirroring how the cluster binds
// "127.0.0.1:0" and reads the port back. Rebinding an address is
// allowed once its previous listener closed; rebinding a live one fails
// like a TCP address in use.
func (n *Net) Listen(network, addr string) (net.Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if addr == "" || strings.HasSuffix(addr, ":0") {
		n.nextAddr++
		addr = fmt.Sprintf("inproc-%d", n.nextAddr)
	}
	if _, live := n.listeners[addr]; live {
		return nil, fmt.Errorf("transport: listen %s: address in use", addr)
	}
	l := &listener{
		net:     n,
		addr:    addrT(addr),
		acceptq: make(chan net.Conn, 16),
		done:    make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to a listener on this Net. network is accepted for
// signature compatibility and ignored. The timeout bounds the wait for
// the listener's accept queue (a listener that exists but never accepts
// behaves like a full TCP backlog).
func (n *Net) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	n.mu.Lock()
	l := n.listeners[addr]
	n.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("transport: dial %s: connection refused", addr)
	}
	a2b := make(chan []byte, chunkCap)
	b2a := make(chan []byte, chunkCap)
	dialed := newConn(addrT(fmt.Sprintf("%s-dial", addr)), l.addr, b2a, a2b)
	accepted := newConn(l.addr, dialed.local, a2b, b2a)
	dialed.peer, accepted.peer = accepted, dialed
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case l.acceptq <- accepted:
		return dialed, nil
	case <-l.done:
		return nil, fmt.Errorf("transport: dial %s: connection refused", addr)
	case <-t.C:
		return nil, fmt.Errorf("transport: dial %s: %w", addr, os.ErrDeadlineExceeded)
	}
}

type listener struct {
	net     *Net
	addr    addrT
	acceptq chan net.Conn
	done    chan struct{}
	once    sync.Once
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.acceptq:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.net.mu.Lock()
		if l.net.listeners[string(l.addr)] == l {
			delete(l.net.listeners, string(l.addr))
		}
		l.net.mu.Unlock()
		// Connections parked in the backlog never reached Accept; close
		// them so their dialers see the teardown instead of a hang.
		for {
			select {
			case c := <-l.acceptq:
				c.Close()
			default:
				return
			}
		}
	})
	return nil
}

func (l *listener) Addr() net.Addr { return l.addr }

// conn is one direction-pair endpoint. Writes copy the caller's slice
// (net.Conn lets the caller reuse its buffer the moment Write returns —
// the cluster's writev path does exactly that with pooled scratch
// blocks) and send the copy to the peer's receive channel; reads drain
// the channel through a pending-bytes carry.
//
// Deadlines are sampled at the start of each operation: a SetDeadline
// issued while an op is already blocked does not interrupt it (the
// cluster interrupts stuck peers by closing the conn, which does).
type conn struct {
	local, remote addrT
	peer          *conn
	rd            <-chan []byte
	wr            chan<- []byte
	done          chan struct{}
	once          sync.Once

	mu            sync.Mutex
	pending       []byte
	readDeadline  time.Time
	writeDeadline time.Time
}

func newConn(local, remote addrT, rd <-chan []byte, wr chan<- []byte) *conn {
	return &conn{local: local, remote: remote, rd: rd, wr: wr, done: make(chan struct{})}
}

// expired reports whether a set deadline has already passed.
func expired(dl time.Time) bool {
	return !dl.IsZero() && !time.Now().Before(dl)
}

// deadlineTimer turns a deadline into a channel: nil (never fires) when
// unset, else a timer. Operations arm it only once they are about to
// block, so the common non-blocking case allocates no timer.
func deadlineTimer(dl time.Time) (<-chan time.Time, *time.Timer) {
	if dl.IsZero() {
		return nil, nil
	}
	t := time.NewTimer(time.Until(dl))
	return t.C, t
}

func (c *conn) Read(b []byte) (int, error) {
	c.mu.Lock()
	if len(c.pending) > 0 {
		n := copy(b, c.pending)
		c.pending = c.pending[n:]
		c.mu.Unlock()
		return n, nil
	}
	dl := c.readDeadline
	c.mu.Unlock()
	if expired(dl) {
		return 0, &net.OpError{Op: "read", Net: "inproc", Addr: c.local, Err: os.ErrDeadlineExceeded}
	}
	// Drain buffered chunks before honoring a peer close: bytes written
	// before the close must still be readable, like a TCP FIN.
	select {
	case chunk := <-c.rd:
		return c.deliver(b, chunk), nil
	default:
	}
	tc, t := deadlineTimer(dl)
	if t != nil {
		defer t.Stop()
	}
	select {
	case chunk := <-c.rd:
		return c.deliver(b, chunk), nil
	case <-c.done:
		return 0, net.ErrClosed
	case <-c.peer.done:
		// Second chance: a chunk may have landed between the drain above
		// and the peer's close.
		select {
		case chunk := <-c.rd:
			return c.deliver(b, chunk), nil
		default:
			return 0, io.EOF
		}
	case <-tc:
		return 0, &net.OpError{Op: "read", Net: "inproc", Addr: c.local, Err: os.ErrDeadlineExceeded}
	}
}

func (c *conn) deliver(b, chunk []byte) int {
	n := copy(b, chunk)
	if n < len(chunk) {
		c.mu.Lock()
		c.pending = chunk[n:]
		c.mu.Unlock()
	}
	return n
}

func (c *conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	dl := c.writeDeadline
	c.mu.Unlock()
	if expired(dl) {
		return 0, &net.OpError{Op: "write", Net: "inproc", Addr: c.local, Err: os.ErrDeadlineExceeded}
	}
	// Check teardown before racing the buffered send: with room in the
	// channel both cases are ready and select would pick at random,
	// letting a write "succeed" after the peer already closed.
	select {
	case <-c.done:
		return 0, net.ErrClosed
	case <-c.peer.done:
		return 0, io.ErrClosedPipe
	default:
	}
	chunk := append([]byte(nil), b...)
	select {
	case c.wr <- chunk:
		return len(b), nil
	default:
	}
	tc, t := deadlineTimer(dl)
	if t != nil {
		defer t.Stop()
	}
	select {
	case c.wr <- chunk:
		return len(b), nil
	case <-c.done:
		return 0, net.ErrClosed
	case <-c.peer.done:
		return 0, io.ErrClosedPipe
	case <-tc:
		return 0, &net.OpError{Op: "write", Net: "inproc", Addr: c.local, Err: os.ErrDeadlineExceeded}
	}
}

func (c *conn) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.mu.Unlock()
	return nil
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return nil
}

func (c *conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.writeDeadline = t
	c.mu.Unlock()
	return nil
}
