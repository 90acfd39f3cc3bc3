// Package cluster implements FlashCoop's cooperative networking: a compact
// binary wire protocol, a length-framed connection type, and a live TCP
// storage node (LiveNode) that buffers writes, forwards backups to its
// ring partners (a cooperative pair is a 2-member ring), persists evicted
// blocks, exchanges heartbeats and workload information, and recovers
// dirty data from its partners after a crash.
//
// The simulation experiments (internal/experiments) use the deterministic
// in-process model from internal/core; this package is the same protocol
// running over real sockets, suitable for a two-machine deployment.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"flashcoop/internal/stream"
)

// MsgType identifies a protocol message.
type MsgType uint8

// Protocol message types.
const (
	MsgHello MsgType = iota + 1
	MsgHelloAck
	MsgWriteFwd // forward write backup: LPNs + page data
	MsgWriteAck
	MsgDiscard // drop backups for flushed pages: LPNs
	MsgDiscardAck
	MsgHeartbeat
	MsgHeartbeatAck
	MsgFetchRCT // request all backups held for me
	MsgRCTData  // response: LPNs + page data
	MsgCleanRemote
	MsgCleanAck
	MsgWorkloadInfo // dynamic-allocation exchange
	MsgWorkloadInfoAck
	MsgError
	MsgResync // re-replicate degraded writes after an outage: LPNs + Stamps + page data
	MsgResyncAck
	MsgMembership // propagate a ring layout: Epoch + Members
	MsgMembershipAck
	MsgRepair     // fetch newest backup copies of corrupt local pages: LPNs
	MsgRepairResp // response: LPNs + Stamps + page data (holder's subset)
)

// String names the message type.
func (t MsgType) String() string {
	names := map[MsgType]string{
		MsgHello: "hello", MsgHelloAck: "hello-ack",
		MsgWriteFwd: "write-fwd", MsgWriteAck: "write-ack",
		MsgDiscard: "discard", MsgDiscardAck: "discard-ack",
		MsgHeartbeat: "heartbeat", MsgHeartbeatAck: "heartbeat-ack",
		MsgFetchRCT: "fetch-rct", MsgRCTData: "rct-data",
		MsgCleanRemote: "clean-remote", MsgCleanAck: "clean-ack",
		MsgWorkloadInfo: "workload-info", MsgWorkloadInfoAck: "workload-info-ack",
		MsgError:  "error",
		MsgResync: "resync", MsgResyncAck: "resync-ack",
		MsgMembership: "membership", MsgMembershipAck: "membership-ack",
		MsgRepair: "repair", MsgRepairResp: "repair-resp",
	}
	if s, ok := names[t]; ok {
		return s
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Info mirrors core.WorkloadInfo on the wire.
type Info struct {
	WriteFrac float64
	Mem       float64
	CPU       float64
	Net       float64
}

// Message is one protocol frame. Stamps, when present, runs parallel to
// LPNs and carries each page's write stamp — a node-local monotonic
// version that survives restarts — so the receiver can order a frame's
// pages against state it already holds (stale backups are never allowed
// to overwrite newer data; see livenode.go).
type Message struct {
	Type   MsgType
	Seq    uint64
	LPNs   []int64
	Stamps []uint64
	Data   []byte
	Info   Info
	Err    string
	// Streams, when present, runs parallel to LPNs and carries each
	// page's temperature tag so the receiver's FTL can keep the pair's
	// stream segregation intact across the backup path. Unknown tag
	// bytes degrade to the default stream rather than erroring.
	Streams []stream.Stream
	// Pressure is the sender's garbage-collection pressure in [0,1]
	// (ftl.FTL.GCPressure), gossiped on heartbeats and acks so each node
	// can defer non-urgent traffic toward a partner digesting GC.
	Pressure float64
	// Epoch is the sender's ownership epoch: the version of the ring
	// layout the frame was routed under. A receiver on a newer epoch
	// rejects data-plane frames from an older one, so late frames routed
	// by a previous ring layout can never land in the wrong backup hold.
	// Zero means the sender was never configured.
	Epoch uint64
	// Origin identifies the sending member (its ring member ID) on
	// data-plane frames, so the receiver files backups into the per-origin
	// hold and answers RCT fetches with exactly that origin's pages.
	Origin string
	// Members carries the ring member list on MsgMembership frames.
	Members []string
}

// MaxFrameBytes bounds a single frame (16 MiB of payload covers thousands
// of 4KB pages per forward).
const MaxFrameBytes = 16 << 20

// Encoding errors.
var (
	ErrFrameTooLarge = errors.New("cluster: frame exceeds MaxFrameBytes")
	ErrBadFrame      = errors.New("cluster: malformed frame")
)

// Marshal returns the message body: the bytes a v2 frame carries after
// its header, exactly as appendFrameV2 encodes them.
func (m *Message) Marshal() ([]byte, error) {
	bufs, sp, err := appendFrameV2(nil, m, nil)
	if err != nil {
		return nil, err
	}
	defer releaseFrameScratch(sp)
	bufs[0] = bufs[0][FrameHdrV2Len:]
	body := make([]byte, 0, m.bodyLen(len(m.Data)))
	for _, b := range bufs {
		body = append(body, b...)
	}
	return body, nil
}

// bodyLen is the encoded body size of m carrying dataLen payload bytes.
// Every field is always present, so the layout is fixed:
//
//	type u8 | seq u64 | n u32, LPNs n×u64 | n u32, stamps n×u64 |
//	n u32, data | info 4×f64 | n u16, err | n u32, stream tags n×u8 |
//	pressure f64 | epoch u64 | n u16, origin | n u16, n×(u16 len, member)
//
// all integers big-endian.
func (m *Message) bodyLen(dataLen int) int {
	n := 1 + 8 + 4 + 8*len(m.LPNs) + 4 + 8*len(m.Stamps) + 4 + dataLen + 8*4 + 2 + len(m.Err) +
		4 + len(m.Streams) + 8 + 8 + 2 + len(m.Origin) + 2
	for _, mem := range m.Members {
		n += 2 + len(mem)
	}
	return n
}

// Unmarshal decodes a message body produced by Marshal. It decodes in
// place: LPNs and Stamps reuse their capacity, Data aliases buf, and
// Origin keeps its previous string when the bytes are unchanged, so
// decoding a stream of frames into one Message allocates nothing on the
// forward/ack path. Empty counts decode to empty non-nil slices; Members
// and Streams (rare frames) are freshly allocated whenever present.
func (m *Message) Unmarshal(buf []byte) error {
	r := reader{buf: buf}
	t, err := r.u8()
	if err != nil {
		return err
	}
	m.Type = MsgType(t)
	if m.Seq, err = r.u64(); err != nil {
		return err
	}
	nl, err := r.u32()
	if err != nil {
		return err
	}
	if int(nl)*8 > len(r.buf)-r.off {
		return fmt.Errorf("%w: lpn count %d exceeds frame", ErrBadFrame, nl)
	}
	m.LPNs = resize(m.LPNs, int(nl))
	for i := range m.LPNs {
		v, err := r.u64()
		if err != nil {
			return err
		}
		m.LPNs[i] = int64(v)
	}
	ns, err := r.u32()
	if err != nil {
		return err
	}
	if int(ns)*8 > len(r.buf)-r.off {
		return fmt.Errorf("%w: stamp count %d exceeds frame", ErrBadFrame, ns)
	}
	m.Stamps = resize(m.Stamps, int(ns))
	for i := range m.Stamps {
		if m.Stamps[i], err = r.u64(); err != nil {
			return err
		}
	}
	nd, err := r.u32()
	if err != nil {
		return err
	}
	if m.Data, err = r.bytes(int(nd)); err != nil {
		return err
	}
	var fs [4]float64
	for i := range fs {
		v, err := r.u64()
		if err != nil {
			return err
		}
		fs[i] = math.Float64frombits(v)
	}
	m.Info = Info{WriteFrac: fs[0], Mem: fs[1], CPU: fs[2], Net: fs[3]}
	ne, err := r.u16()
	if err != nil {
		return err
	}
	eb, err := r.bytes(int(ne))
	if err != nil {
		return err
	}
	if string(eb) != m.Err {
		m.Err = string(eb)
	}
	nt, err := r.u32()
	if err != nil {
		return err
	}
	if int(nt) > len(r.buf)-r.off {
		return fmt.Errorf("%w: stream-tag count %d exceeds frame", ErrBadFrame, nt)
	}
	m.Streams = nil
	if nt > 0 {
		m.Streams = make([]stream.Stream, nt)
		for i := range m.Streams {
			b, err := r.u8()
			if err != nil {
				return err
			}
			// Unknown tags from newer senders degrade to the default
			// stream instead of failing the frame.
			m.Streams[i] = stream.FromByte(b)
		}
	}
	pv, err := r.u64()
	if err != nil {
		return err
	}
	m.Pressure = math.Float64frombits(pv)
	if m.Epoch, err = r.u64(); err != nil {
		return err
	}
	no, err := r.u16()
	if err != nil {
		return err
	}
	ob, err := r.bytes(int(no))
	if err != nil {
		return err
	}
	if string(ob) != m.Origin {
		m.Origin = string(ob)
	}
	nm, err := r.u16()
	if err != nil {
		return err
	}
	if int(nm)*2 > len(r.buf)-r.off {
		return fmt.Errorf("%w: member count %d exceeds frame", ErrBadFrame, nm)
	}
	m.Members = nil
	if nm > 0 {
		m.Members = make([]string, nm)
		for i := range m.Members {
			ml, err := r.u16()
			if err != nil {
				return err
			}
			mb, err := r.bytes(int(ml))
			if err != nil {
				return err
			}
			m.Members[i] = string(mb)
		}
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(r.buf)-r.off)
	}
	return nil
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The result is never nil, so an empty count decodes the
// same whether or not s was.
func resize[T any](s []T, n int) []T {
	if cap(s) < n || s == nil {
		return make([]T, n)
	}
	return s[:n]
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) need(n int) error {
	if r.off+n > len(r.buf) {
		return fmt.Errorf("%w: truncated at offset %d", ErrBadFrame, r.off)
	}
	return nil
}

func (r *reader) u8() (uint8, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (uint16, error) {
	if err := r.need(2); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 {
		return nil, ErrBadFrame
	}
	if err := r.need(n); err != nil {
		return nil, err
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v, nil
}
