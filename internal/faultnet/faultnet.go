// Package faultnet wraps net.Conn and net.Listener with a seeded,
// scriptable fault schedule: added latency, silently dropped writes,
// duplicated writes, mid-frame truncation, connection resets, and
// one-sided partitions. It exists so the cluster layer's failure handling
// (redial backoff, failover, crash recovery) can be exercised under
// repeatable adversarial schedules — every fault decision is drawn from a
// per-connection PRNG derived from the network seed, so a failing run is
// reproducible from its seed alone (modulo goroutine scheduling).
//
// A Network stands in for one node's view of the transport: plug its Dial
// and Listen methods into cluster.LiveConfig's Dialer/Listener fields.
// Partitioning a Network blocks that node's traffic only, which makes
// asymmetric partitions trivial: partition A's network and A cannot reach
// B while B still reaches A.
package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPartitioned is returned by operations on a partitioned Network.
var ErrPartitioned = errors.New("faultnet: partitioned")

// ErrInjectedReset is returned when the schedule resets a connection.
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// Faults are per-operation fault probabilities, all in [0,1]. The zero
// value injects nothing (pass-through transport).
type Faults struct {
	// DelayProb adds a uniform delay in (0, DelayMax] before an op.
	DelayProb float64
	DelayMax  time.Duration
	// DropProb silently swallows a Write: the caller sees success, the
	// peer sees nothing. On a framed stream this desynchronizes framing,
	// surfacing as a decode error on the far side.
	DropProb float64
	// DupProb writes the payload twice (duplicated frame).
	DupProb float64
	// TruncateProb writes a strict prefix of the payload and then resets
	// the connection (mid-frame truncation).
	TruncateProb float64
	// ResetProb closes the connection instead of performing the op.
	ResetProb float64
}

// Tap observes the bytes that actually crossed the wire (after fault
// application) for invariant checkers. dialed says whether the tapped
// connection was created by Dial (true) or Accept (false); outbound says
// whether the bytes were written by this side.
type Tap interface {
	Observe(connID uint64, dialed, outbound bool, b []byte)
}

// Network is one node's fault-injecting transport. All methods are safe
// for concurrent use.
type Network struct {
	mu          sync.Mutex
	seed        int64
	faults      Faults
	tap         Tap
	nextID      uint64
	partitioned atomic.Bool
	dialFn      DialFunc
	listenFn    ListenFunc

	steps     atomic.Uint64
	crashStep uint64
	crashFn   func()
	crashOnce sync.Once
}

// DialFunc and ListenFunc are the underlying transport hooks a Network
// injects faults over. They match net.DialTimeout and net.Listen.
type (
	DialFunc   func(network, addr string, timeout time.Duration) (net.Conn, error)
	ListenFunc func(network, addr string) (net.Listener, error)
)

// New builds a Network whose fault schedule derives from seed, injecting
// over real TCP (net.DialTimeout / net.Listen).
func New(seed int64) *Network { return &Network{seed: seed} }

// NewOver builds a Network that injects its fault schedule over a custom
// transport — e.g. the channel-backed in-process one in
// internal/transport, so chaos drills exercise the live framing code
// without loopback sockets. A nil dial or listen falls back to TCP.
func NewOver(seed int64, dial DialFunc, listen ListenFunc) *Network {
	return &Network{seed: seed, dialFn: dial, listenFn: listen}
}

// SetFaults replaces the fault probabilities. Existing connections pick up
// the change on their next operation.
func (n *Network) SetFaults(f Faults) {
	n.mu.Lock()
	n.faults = f
	n.mu.Unlock()
}

// CurrentFaults reports the active fault probabilities.
func (n *Network) CurrentFaults() Faults {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.faults
}

// SetPartitioned blocks (true) or unblocks (false) every operation on this
// network: dials fail and reads/writes on existing connections error.
func (n *Network) SetPartitioned(p bool) { n.partitioned.Store(p) }

// SetTap installs the wire observer. Pass nil to remove it.
func (n *Network) SetTap(t Tap) {
	n.mu.Lock()
	n.tap = t
	n.mu.Unlock()
}

// CrashAt arms a one-shot hook that fires the first time the network's
// operation counter reaches step. It is the "crash at step N" primitive:
// the hook typically calls LiveNode.Crash.
func (n *Network) CrashAt(step uint64, fn func()) {
	n.mu.Lock()
	n.crashStep = step
	n.crashFn = fn
	n.crashOnce = sync.Once{}
	n.mu.Unlock()
}

// Steps reports how many operations (dials, reads, writes) the network has
// performed.
func (n *Network) Steps() uint64 { return n.steps.Load() }

// step advances the op counter and fires the crash hook when due.
func (n *Network) step() {
	s := n.steps.Add(1)
	n.mu.Lock()
	fn, due := n.crashFn, n.crashFn != nil && s >= n.crashStep
	n.mu.Unlock()
	if due {
		n.crashOnce.Do(fn)
	}
}

// connRNG derives the deterministic per-connection schedule source.
func (n *Network) connRNG(id uint64) *rand.Rand {
	return rand.New(rand.NewSource(n.seed ^ int64(id*0x9E3779B97F4A7C15)))
}

// Dial connects like net.DialTimeout (or the injected transport) through
// the fault layer.
func (n *Network) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	n.step()
	if n.partitioned.Load() {
		return nil, ErrPartitioned
	}
	dial := n.dialFn
	if dial == nil {
		dial = net.DialTimeout
	}
	c, err := dial(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return n.wrap(c, true), nil
}

// Listen binds like net.Listen (or the injected transport); accepted
// connections go through the fault layer too.
func (n *Network) Listen(network, addr string) (net.Listener, error) {
	listen := n.listenFn
	if listen == nil {
		listen = net.Listen
	}
	ln, err := listen(network, addr)
	if err != nil {
		return nil, err
	}
	return &listener{Listener: ln, net: n}, nil
}

func (n *Network) wrap(c net.Conn, dialed bool) *conn {
	n.mu.Lock()
	n.nextID++
	id := n.nextID
	n.mu.Unlock()
	return &conn{Conn: c, net: n, id: id, dialed: dialed, rng: n.connRNG(id)}
}

type listener struct {
	net.Listener
	net *Network
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.net.wrap(c, false), nil
}

// conn is one fault-injected connection. The schedule rng is guarded by
// its own mutex because reads and writes run on different goroutines.
type conn struct {
	net.Conn
	net    *Network
	id     uint64
	dialed bool

	rngMu sync.Mutex
	rng   *rand.Rand
}

// decision is one draw of the fault schedule for an upcoming op.
type decision struct {
	delay    time.Duration
	drop     bool
	dup      bool
	truncate int // bytes to keep before resetting; -1 = no truncation
	reset    bool
}

func (c *conn) draw(f Faults, opLen int) decision {
	c.rngMu.Lock()
	defer c.rngMu.Unlock()
	d := decision{truncate: -1}
	if f.DelayProb > 0 && c.rng.Float64() < f.DelayProb && f.DelayMax > 0 {
		d.delay = time.Duration(c.rng.Int63n(int64(f.DelayMax))) + 1
	}
	if f.ResetProb > 0 && c.rng.Float64() < f.ResetProb {
		d.reset = true
		return d
	}
	if opLen > 0 {
		if f.DropProb > 0 && c.rng.Float64() < f.DropProb {
			d.drop = true
			return d
		}
		if f.TruncateProb > 0 && c.rng.Float64() < f.TruncateProb {
			d.truncate = c.rng.Intn(opLen) // strict prefix
			return d
		}
		if f.DupProb > 0 && c.rng.Float64() < f.DupProb {
			d.dup = true
		}
	}
	return d
}

func (c *conn) tap(outbound bool, b []byte) {
	c.net.mu.Lock()
	t := c.net.tap
	c.net.mu.Unlock()
	if t != nil && len(b) > 0 {
		t.Observe(c.id, c.dialed, outbound, b)
	}
}

func (c *conn) Write(b []byte) (int, error) {
	c.net.step()
	if c.net.partitioned.Load() {
		return 0, ErrPartitioned
	}
	d := c.draw(c.net.CurrentFaults(), len(b))
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	switch {
	case d.reset:
		c.Conn.Close()
		return 0, ErrInjectedReset
	case d.drop:
		// Lie about success; nothing reaches the wire.
		return len(b), nil
	case d.truncate >= 0:
		if d.truncate > 0 {
			if _, err := c.Conn.Write(b[:d.truncate]); err == nil {
				c.tap(true, b[:d.truncate])
			}
		}
		c.Conn.Close()
		return d.truncate, ErrInjectedReset
	}
	n, err := c.Conn.Write(b)
	if n > 0 {
		c.tap(true, b[:n])
	}
	if err == nil && d.dup {
		if _, derr := c.Conn.Write(b); derr == nil {
			c.tap(true, b)
		}
	}
	return n, err
}

func (c *conn) Read(b []byte) (int, error) {
	c.net.step()
	if c.net.partitioned.Load() {
		return 0, ErrPartitioned
	}
	d := c.draw(c.net.CurrentFaults(), 0)
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if d.reset {
		c.Conn.Close()
		return 0, ErrInjectedReset
	}
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.tap(false, b[:n])
	}
	return n, err
}
