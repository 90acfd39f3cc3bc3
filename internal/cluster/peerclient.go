package cluster

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Peer client errors.
var (
	errClientClosed = errors.New("cluster: peer client closed")
	errCallTimeout  = errors.New("cluster: peer call timed out")
	// errDialBackoff is returned when the redial gate is closed: a recent
	// dial failed and the backoff window has not elapsed yet. Callers get
	// an immediate failure instead of hammering a dead partner.
	errDialBackoff = errors.New("cluster: peer dial backing off")
)

// Redial backoff bounds. The first failed dial arms a short window; each
// further failure doubles it (with ±25% jitter) up to the cap.
const (
	dialBackoffBase = 25 * time.Millisecond
	dialBackoffCap  = 2 * time.Second
)

// peerClient is a pipelined RPC client over one TCP connection. Many calls
// may be in flight at once: a writer goroutine streams frames onto the
// socket (coalescing flushes when the send queue is hot) and a reader
// goroutine matches responses to waiters by Seq, so a round trip no longer
// serializes the connection. Redials are gated by bounded exponential
// backoff so a dead partner is probed, not hammered.
// dialFunc opens the transport to a partner; the default is
// net.DialTimeout. Tests inject fault-laden transports here (see
// internal/faultnet).
type dialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

type peerClient struct {
	addr    string
	timeout time.Duration
	dial    dialFunc

	mu        sync.Mutex
	sess      *peerSession
	seq       uint64
	closed    bool
	backoff   time.Duration
	nextDial  time.Time
	dials     int // dial attempts (for tests)
	dialSkips int // calls rejected by the backoff gate (for tests)
	rng       *rand.Rand

	wg sync.WaitGroup
}

// peerCall is one in-flight request. chunks, when non-nil, is the
// request's page payload as a gather list: the frame encoder splices the
// slices onto the wire by reference (see appendFrameV2), so the caller
// must keep them untouched until the call completes.
//
// A call completes exactly once: its completer (the read loop, or the
// session teardown) fills resp or err and sends one token on done, which
// the call's single waiter receives. done has room for exactly that
// token, so a completed and waited call leaves it empty and the whole
// peerCall — channel included — can carry the next request (the
// forwarder keeps one per frame; see fwdFrame).
type peerCall struct {
	msg    *Message
	chunks [][]byte
	sess   *peerSession
	done   chan struct{}
	resp   Message // owned by the waiter: payloads are copied out of the read buffer
	err    error
}

// newCall returns a one-off call carrying m.
func newCall(m *Message, chunks [][]byte) *peerCall {
	return &peerCall{msg: m, chunks: chunks, done: make(chan struct{}, 1)}
}

// result reports a completed call's outcome.
func (pc *peerCall) result() (*Message, error) {
	if pc.err != nil {
		return nil, pc.err
	}
	return &pc.resp, nil
}

// take copies a decoded response into the call. The read loop decodes
// every frame into one reused Message and buffer, so the payload slices
// are cloned (an ack carries none, and its copy allocates nothing);
// Members and Streams are freshly allocated by every decode and move over
// as they are.
func (pc *peerCall) take(m *Message) {
	pc.resp = *m
	pc.resp.LPNs = slices.Clone(m.LPNs)
	pc.resp.Stamps = slices.Clone(m.Stamps)
	pc.resp.Data = slices.Clone(m.Data)
	pc.err = nil
}

// peerSession is the state of one live connection: its send queue, the
// in-flight call table, and the pair of pump goroutines.
type peerSession struct {
	client *peerClient
	conn   net.Conn
	sendq  chan *peerCall
	dead   chan struct{}

	mu      sync.Mutex
	pending map[uint64]*peerCall
	err     error

	// sent is the highest Seq the write loop has encoded. The write loop
	// stores it before the batch goes on the wire and the read loop loads
	// it before completing a call, which orders every completion after
	// the encoder's last read of the request: a completed call's message
	// and chunk list may be reused at once.
	sent atomic.Uint64

	failOnce sync.Once
}

func newPeerClient(addr string, timeout time.Duration, dial dialFunc) *peerClient {
	if dial == nil {
		dial = net.DialTimeout
	}
	return &peerClient{
		addr:    addr,
		timeout: timeout,
		dial:    dial,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// call sends one request and waits for its response (or timeout). It is
// safe for concurrent use; concurrent calls share the pipeline.
func (p *peerClient) call(m *Message) (*Message, error) {
	return p.callT(m, p.timeout)
}

// callT is call with a caller-chosen wait budget: bulk transfers (RCT
// recovery, resync streams) get a larger timeout than per-page traffic so
// a big but healthy frame isn't mistaken for a hung partner.
func (p *peerClient) callT(m *Message, timeout time.Duration) (*Message, error) {
	pc, err := p.start(m)
	if err != nil {
		return nil, err
	}
	return p.waitT(pc, timeout)
}

// start enqueues a request onto the pipeline without waiting for the
// response. The caller must eventually waitT(pc).
func (p *peerClient) start(m *Message) (*peerCall, error) {
	pc := newCall(m, nil)
	if err := p.startCall(pc); err != nil {
		return nil, err
	}
	return pc, nil
}

// startCall enqueues a prepared call — pc.msg, optional pc.chunks, and an
// empty pc.done — onto the pipeline. The chunks are the page payload as a
// gather list: they go onto the wire zero-copy, in order, after whatever
// pc.msg.Data holds, so the caller must not mutate or recycle them until
// the call completes (the writer's Write blocks on exactly that
// completion). On error the call is complete and was never sent.
func (p *peerClient) startCall(pc *peerCall) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errClientClosed
	}
	s := p.sess
	if s == nil {
		var err error
		if s, err = p.dialLocked(); err != nil {
			p.mu.Unlock()
			return err
		}
	}
	p.seq++
	pc.msg.Seq = p.seq
	pc.sess = s
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		p.mu.Unlock()
		return err
	}
	s.pending[pc.msg.Seq] = pc
	s.mu.Unlock()
	p.mu.Unlock()

	select {
	case s.sendq <- pc:
		return nil
	case <-s.dead:
		// The session failed while we were queueing; the drain already
		// completed (or will complete) this call with the session error.
		<-pc.done
		return pc.err
	}
}

// waitT blocks until the call completes or timeout elapses. A timeout
// tears the session down (the connection is no longer trustworthy: a late
// response would be matched against nothing).
func (p *peerClient) waitT(pc *peerCall, timeout time.Duration) (*Message, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	return awaitCall(pc, time.Now().Add(timeout), t)
}

// awaitCall waits for pc until deadline on the caller's timer, which must
// be stopped (or fired and drained) and is left that way, so one timer
// serves any number of sequential waits. A missed deadline fails the
// call's whole session, as in waitT.
func awaitCall(pc *peerCall, deadline time.Time, t *time.Timer) (*Message, error) {
	select {
	case <-pc.done:
		return pc.result()
	default:
	}
	t.Reset(time.Until(deadline))
	select {
	case <-pc.done:
		t.Stop()
	case <-t.C:
		pc.sess.fail(errCallTimeout)
		<-pc.done
	}
	return pc.result()
}

// dialLocked connects (subject to the backoff gate) and starts the pump
// goroutines. Caller holds p.mu.
func (p *peerClient) dialLocked() (*peerSession, error) {
	if now := time.Now(); now.Before(p.nextDial) {
		p.dialSkips++
		return nil, fmt.Errorf("%w (%v remaining)", errDialBackoff, p.nextDial.Sub(now).Round(time.Millisecond))
	}
	p.dials++
	conn, err := p.dial("tcp", p.addr, p.timeout)
	if err != nil {
		d := p.backoff
		if d == 0 {
			d = dialBackoffBase
		} else {
			d *= 2
			if d > dialBackoffCap {
				d = dialBackoffCap
			}
		}
		p.backoff = d
		// ±25% jitter so paired nodes don't probe in lockstep.
		jitter := time.Duration(p.rng.Int63n(int64(d)/2+1)) - d/4
		p.nextDial = time.Now().Add(d + jitter)
		return nil, err
	}
	p.backoff = 0
	p.nextDial = time.Time{}
	s := &peerSession{
		client:  p,
		conn:    conn,
		sendq:   make(chan *peerCall, 256),
		dead:    make(chan struct{}),
		pending: make(map[uint64]*peerCall),
	}
	p.sess = s
	p.wg.Add(2)
	go s.writeLoop()
	go s.readLoop()
	return s, nil
}

// nextDialIn reports how long the redial backoff gate stays closed: zero
// when a session is live (or a dial may be attempted now), otherwise the
// remaining window. The prober paces itself with this instead of guessing,
// so it rides the same jittered exponential backoff as everyone else.
func (p *peerClient) nextDialIn() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sess != nil || p.closed {
		return 0
	}
	d := time.Until(p.nextDial)
	if d < 0 {
		d = 0
	}
	return d
}

// dialStats reports dial attempts and backoff-gated rejections (tests).
func (p *peerClient) dialStats() (dials, skips int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dials, p.dialSkips
}

// close tears down the current session and fails all in-flight calls.
func (p *peerClient) close() {
	p.mu.Lock()
	p.closed = true
	s := p.sess
	p.mu.Unlock()
	if s != nil {
		s.fail(errClientClosed)
	}
	p.wg.Wait()
}

// sendBatchFrames caps how many queued frames one writev gathers. The
// cap bounds the gather list (and the scratch blocks pinned at once),
// not throughput — a hot queue just fills the next batch immediately.
const sendBatchFrames = 64

// writeLoop streams queued frames onto the socket as checksummed v2
// gather lists: every frame's metadata is encoded into a pooled scratch
// block, its page payload is spliced in by reference, and everything the
// queue holds at that moment leaves in a single writev — no buffered-
// writer copy, no payload copy, and consecutive frames from a hot queue
// share one syscall.
func (s *peerSession) writeLoop() {
	defer s.client.wg.Done()
	var batch frameBatch
	defer batch.reset()
	for {
		select {
		case pc := <-s.sendq:
			sent := s.sent.Load()
			for {
				if err := batch.add(pc.msg, pc.chunks); err != nil {
					s.fail(err)
					return
				}
				sent = max(sent, pc.msg.Seq)
				if batch.frames() >= sendBatchFrames {
					break
				}
				var more bool
				select {
				case pc = <-s.sendq:
					more = true
				default:
				}
				if !more {
					break
				}
			}
			s.sent.Store(sent)
			_ = s.conn.SetWriteDeadline(time.Now().Add(s.client.timeout))
			if err := batch.flush(s.conn); err != nil {
				s.fail(err)
				return
			}
		case <-s.dead:
			return
		}
	}
}

// maxRetainedReply caps the receive buffer a session keeps between
// frames. Acks are tens of bytes; an RCT or repair answer bigger than
// this is read into a one-off buffer.
const maxRetainedReply = 64 << 10

// readLoop matches response frames to pending calls by Seq, tolerating
// out-of-order completion. The connection is read through one buffered
// reader: a frame header is a handful of bytes, and a pipelined burst of
// acks arrives as one segment, so buffering turns several tiny reads per
// frame into one syscall per burst. Every frame decodes into the same
// Message and buffer; take copies what the waiter keeps.
func (s *peerSession) readLoop() {
	defer s.client.wg.Done()
	br := bufio.NewReaderSize(s.conn, 64<<10)
	var (
		msg Message
		buf []byte
	)
	for {
		if err := readFrameInto(br, &msg, &buf); err != nil {
			s.fail(err)
			return
		}
		if cap(buf) > maxRetainedReply {
			buf = nil
		}
		if msg.Seq > s.sent.Load() {
			s.fail(fmt.Errorf("cluster: response to unsent seq %d", msg.Seq))
			return
		}
		s.mu.Lock()
		pc := s.pending[msg.Seq]
		delete(s.pending, msg.Seq)
		s.mu.Unlock()
		if pc == nil {
			s.fail(fmt.Errorf("cluster: response with unknown seq %d", msg.Seq))
			return
		}
		if msg.Type == MsgError {
			pc.err = fmt.Errorf("cluster: peer error: %s", msg.Err)
		} else {
			pc.take(&msg)
		}
		pc.done <- struct{}{}
	}
}

// fail tears the session down once: the connection closes, both pumps
// exit, every pending call completes with err, and the client detaches so
// the next start() redials.
func (s *peerSession) fail(err error) {
	s.failOnce.Do(func() {
		s.mu.Lock()
		s.err = err
		drained := make([]*peerCall, 0, len(s.pending))
		for seq, pc := range s.pending {
			delete(s.pending, seq)
			drained = append(drained, pc)
		}
		s.mu.Unlock()
		close(s.dead)
		s.conn.Close()
		p := s.client
		p.mu.Lock()
		if p.sess == s {
			p.sess = nil
		}
		p.mu.Unlock()
		for _, pc := range drained {
			pc.err = err
			pc.done <- struct{}{}
		}
	})
}
