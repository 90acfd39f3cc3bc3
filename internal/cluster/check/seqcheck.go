package check

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"flashcoop/internal/cluster"
)

// SeqChecker is a faultnet.Tap that validates invariant 3 on the wire:
// per client connection, request seqs are never reused and every response
// answers exactly one outstanding request. It reassembles the byte stream
// each side actually put on the wire into frames, so it must only be
// installed on schedules whose faults preserve framing (latency, resets);
// drop/dup/truncate deliberately corrupt the stream and would garble
// reassembly, not the protocol.
//
// Strict monotonicity of request seqs on the wire is NOT asserted: the
// peer client assigns seqs under its lock but enqueues onto the send queue
// outside it, so two concurrent calls may cross — a benign reorder the
// reader side matches by seq. Reuse of a seq, or a response nobody asked
// for, is never benign.
//
// A response may be tapped before its request: the tap sees outbound
// bytes only after the underlying write returns, so on a second core the
// reader can tap the reply first. Such a response is parked until its
// request arrives; Violations reports it only if its seq is still
// unrequested then.
type SeqChecker struct {
	mu         sync.Mutex
	conns      map[uint64]*seqConn
	violations []Violation
}

type seqConn struct {
	reqBuf, respBuf []byte
	seen            map[uint64]bool // request seqs observed on this conn
	answered        map[uint64]bool // response seqs observed on this conn
	early           map[uint64]bool // parked responses: request not yet observed
	broken          bool            // framing lost; stop parsing this conn
}

// NewSeqChecker builds an empty checker; install it with Network.SetTap.
func NewSeqChecker() *SeqChecker {
	return &SeqChecker{conns: make(map[uint64]*seqConn)}
}

// Observe implements faultnet.Tap. Only client (dialed) connections are
// tracked: their outbound bytes are requests, inbound bytes responses.
func (s *SeqChecker) Observe(connID uint64, dialed, outbound bool, b []byte) {
	if !dialed {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.conns[connID]
	if c == nil {
		c = &seqConn{seen: make(map[uint64]bool), answered: make(map[uint64]bool), early: make(map[uint64]bool)}
		s.conns[connID] = c
	}
	if c.broken {
		return
	}
	if outbound {
		c.reqBuf = append(c.reqBuf, b...)
	} else {
		c.respBuf = append(c.respBuf, b...)
	}
	s.drainLocked(connID, c, outbound)
}

// drainLocked parses every complete frame buffered for one direction,
// checking its header and its checksum against the bytes that actually
// crossed the wire, the same way cluster.ReadFrame does. A trailing
// incomplete frame is left in place — the connection may simply have
// died mid-frame, which is not a protocol violation.
func (s *SeqChecker) drainLocked(connID uint64, c *seqConn, outbound bool) {
	buf := &c.respBuf
	if outbound {
		buf = &c.reqBuf
	}
	const hdr = cluster.FrameHdrV2Len
	for {
		if len(*buf) < 4 {
			return
		}
		if (*buf)[0] != cluster.FrameMagicV2 || (*buf)[1] != cluster.FrameVersion2 || (*buf)[2] != 0 || (*buf)[3] != 0 {
			s.violations = append(s.violations, Violation{
				Invariant: "seq", LPN: -1,
				Detail: fmt.Sprintf("conn %d: bad frame header % x", connID, (*buf)[:4]),
			})
			c.broken = true
			return
		}
		if len(*buf) < hdr {
			return
		}
		n := binary.BigEndian.Uint32((*buf)[4:8])
		if n > cluster.MaxFrameBytes || n < 9 {
			s.violations = append(s.violations, Violation{
				Invariant: "seq", LPN: -1,
				Detail: fmt.Sprintf("conn %d: implausible frame length %d", connID, n),
			})
			c.broken = true
			return
		}
		if len(*buf) < hdr+int(n) {
			return
		}
		body := (*buf)[hdr : hdr+int(n)]
		if want := binary.BigEndian.Uint32((*buf)[8:12]); cluster.ChecksumV2(body) != want {
			s.violations = append(s.violations, Violation{
				Invariant: "seq", LPN: -1,
				Detail: fmt.Sprintf("conn %d: frame checksum mismatch", connID),
			})
			c.broken = true
			return
		}
		seq := binary.BigEndian.Uint64(body[1:9])
		if outbound {
			if c.seen[seq] {
				s.violations = append(s.violations, Violation{
					Invariant: "seq", LPN: -1,
					Detail: fmt.Sprintf("conn %d: request seq %d reused", connID, seq),
				})
			}
			c.seen[seq] = true
			if c.early[seq] {
				// The parked response answers this request.
				delete(c.early, seq)
				c.answered[seq] = true
			}
		} else {
			switch {
			case c.answered[seq] || c.early[seq]:
				s.violations = append(s.violations, Violation{
					Invariant: "seq", LPN: -1,
					Detail: fmt.Sprintf("conn %d: duplicate response for seq %d", connID, seq),
				})
			case !c.seen[seq]:
				c.early[seq] = true
			default:
				c.answered[seq] = true
			}
		}
		*buf = (*buf)[hdr+int(n):]
	}
}

// Violations returns every breach recorded so far, plus one for each
// parked response whose request has still not been observed.
func (s *SeqChecker) Violations() []Violation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Violation, len(s.violations))
	copy(out, s.violations)
	ids := make([]uint64, 0, len(s.conns))
	for id := range s.conns {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		seqs := make([]uint64, 0, len(s.conns[id].early))
		for seq := range s.conns[id].early {
			seqs = append(seqs, seq)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, seq := range seqs {
			out = append(out, Violation{
				Invariant: "seq", LPN: -1,
				Detail: fmt.Sprintf("conn %d: response for unknown seq %d", id, seq),
			})
		}
	}
	return out
}
