package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sync"
)

// Wire format. Every frame on a connection is:
//
//	[0] 0xFC magic
//	[1] 0x02 version
//	[2:4] reserved, must be zero
//	[4:8] big-endian body length
//	[8:12] big-endian CRC32-C of the body
//	[12:12+len] body (layout at Message.bodyLen)
//
// The CRC catches corruption TCP's checksum misses. On the send side,
// appendFrameV2 is the one body encoder and never copies page payloads:
// it writes the frame's metadata into one pooled scratch block and
// splices the payload chunks in by reference, so a whole send batch goes
// to the kernel as one writev.
// The constants are exported for wire-level observers (the chaos suite's
// SeqChecker reassembles and CRC-verifies tapped traffic).
const (
	FrameMagicV2  = 0xFC
	FrameVersion2 = 0x02
	FrameHdrV2Len = 12
)

// ChecksumV2 computes the CRC32-C a v2 frame carries for body.
func ChecksumV2(body []byte) uint32 { return crc32.Checksum(body, castagnoli) }

// ErrChecksum reports a v2 frame whose body failed CRC verification.
var ErrChecksum = errors.New("cluster: frame checksum mismatch")

// castagnoli is the CRC32-C polynomial table (hardware-accelerated on
// amd64/arm64, and the standard choice for storage framing).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameScratchPool recycles the metadata blocks appendFrameV2 encodes
// into. A block holds a frame's header plus its LPN/stamp arrays — a few
// KB for a big forward batch — and is reused across frames once the
// writev covering it completes.
var frameScratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4<<10)
	return &b
}}

// releaseFrameScratch returns a scratch block obtained from
// appendFrameV2 to the pool. Callers must not release a block before the
// net.Buffers referencing it have been fully written.
func releaseFrameScratch(sp *[]byte) {
	if sp != nil {
		frameScratchPool.Put(sp)
	}
}

// appendFrameV2 appends one v2 frame to bufs as a gather list without
// copying page data. The frame's payload is m.Data (if any) followed by
// the chunks, in order; metadata lands in a pooled scratch block that is
// referenced by the returned list in two pieces (header+leading metadata,
// trailing metadata) with the payload spliced between them by reference.
//
// The returned scratch block must be released with releaseFrameScratch —
// and the payload slices must stay untouched — only after the returned
// buffers have been written. The checksum is computed here, so a payload
// mutated between append and write is detected by the receiver.
func appendFrameV2(bufs net.Buffers, m *Message, chunks [][]byte) (net.Buffers, *[]byte, error) {
	if err := m.checkLengths(); err != nil {
		return bufs, nil, err
	}
	dataLen := len(m.Data)
	for _, c := range chunks {
		dataLen += len(c)
	}
	bodyLen := m.bodyLen(dataLen)
	if bodyLen > MaxFrameBytes {
		return bufs, nil, ErrFrameTooLarge
	}
	sp := frameScratchPool.Get().(*[]byte)
	blk := (*sp)[:0]
	blk = append(blk, FrameMagicV2, FrameVersion2, 0, 0)
	blk = binary.BigEndian.AppendUint32(blk, uint32(bodyLen))
	blk = append(blk, 0, 0, 0, 0) // CRC, patched once the body is encoded
	blk = append(blk, byte(m.Type))
	blk = binary.BigEndian.AppendUint64(blk, m.Seq)
	blk = binary.BigEndian.AppendUint32(blk, uint32(len(m.LPNs)))
	for _, lpn := range m.LPNs {
		blk = binary.BigEndian.AppendUint64(blk, uint64(lpn))
	}
	blk = binary.BigEndian.AppendUint32(blk, uint32(len(m.Stamps)))
	for _, st := range m.Stamps {
		blk = binary.BigEndian.AppendUint64(blk, st)
	}
	blk = binary.BigEndian.AppendUint32(blk, uint32(dataLen))
	// The payload goes here on the wire; everything after this offset is
	// the trailing metadata piece.
	split := len(blk)
	for _, f := range [4]float64{m.Info.WriteFrac, m.Info.Mem, m.Info.CPU, m.Info.Net} {
		blk = binary.BigEndian.AppendUint64(blk, math.Float64bits(f))
	}
	blk = binary.BigEndian.AppendUint16(blk, uint16(len(m.Err)))
	blk = append(blk, m.Err...)
	blk = binary.BigEndian.AppendUint32(blk, uint32(len(m.Streams)))
	for _, st := range m.Streams {
		blk = append(blk, byte(st))
	}
	blk = binary.BigEndian.AppendUint64(blk, math.Float64bits(m.Pressure))
	blk = binary.BigEndian.AppendUint64(blk, m.Epoch)
	blk = binary.BigEndian.AppendUint16(blk, uint16(len(m.Origin)))
	blk = append(blk, m.Origin...)
	blk = binary.BigEndian.AppendUint16(blk, uint16(len(m.Members)))
	for _, mem := range m.Members {
		blk = binary.BigEndian.AppendUint16(blk, uint16(len(mem)))
		blk = append(blk, mem...)
	}

	crc := crc32.Update(0, castagnoli, blk[FrameHdrV2Len:split])
	if len(m.Data) > 0 {
		crc = crc32.Update(crc, castagnoli, m.Data)
	}
	for _, c := range chunks {
		crc = crc32.Update(crc, castagnoli, c)
	}
	crc = crc32.Update(crc, castagnoli, blk[split:])
	binary.BigEndian.PutUint32(blk[8:12], crc)
	*sp = blk

	if dataLen == 0 {
		// No payload to splice: the metadata goes out as one piece.
		return append(bufs, blk), sp, nil
	}
	bufs = append(bufs, blk[:split])
	if len(m.Data) > 0 {
		bufs = append(bufs, m.Data)
	}
	for _, c := range chunks {
		if len(c) > 0 {
			bufs = append(bufs, c)
		}
	}
	bufs = append(bufs, blk[split:])
	return bufs, sp, nil
}

// frameBatch is a gather list of encoded frames waiting for one writev.
// The list, the metadata scratch blocks it pins and the slice header
// WriteTo consumes are all reused across flushes, so steady-state
// batching allocates nothing. Payloads are spliced in by reference (see
// appendFrameV2) and must stay untouched until the flush.
type frameBatch struct {
	bufs    net.Buffers
	out     net.Buffers // WriteTo's receiver; a field so it does not escape per flush
	scratch []*[]byte
}

// add encodes m (plus the chunks as trailing payload) onto the batch.
func (b *frameBatch) add(m *Message, chunks [][]byte) error {
	bufs, sp, err := appendFrameV2(b.bufs, m, chunks)
	if err != nil {
		return err
	}
	b.bufs, b.scratch = bufs, append(b.scratch, sp)
	return nil
}

// frames reports how many frames are waiting.
func (b *frameBatch) frames() int { return len(b.scratch) }

// flush writes every waiting frame to w in one gather write and empties
// the batch.
func (b *frameBatch) flush(w io.Writer) error {
	b.out = b.bufs
	_, err := b.out.WriteTo(w)
	b.reset()
	return err
}

// reset drops the waiting frames, returning their scratch blocks to the
// pool and their payload references to the collector.
func (b *frameBatch) reset() {
	for _, sp := range b.scratch {
		releaseFrameScratch(sp)
	}
	clear(b.scratch)
	clear(b.bufs)
	b.scratch, b.bufs, b.out = b.scratch[:0], b.bufs[:0], nil
}

// frameBuffered reports whether br already holds the whole next frame,
// so reading it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < FrameHdrV2Len {
		return false
	}
	hdr, err := br.Peek(FrameHdrV2Len)
	if err != nil {
		return false
	}
	return br.Buffered()-FrameHdrV2Len >= int(binary.BigEndian.Uint32(hdr[4:8]))
}

// checkLengths rejects fields whose length does not fit their u16 prefix,
// which the encoder would otherwise truncate under a valid CRC.
func (m *Message) checkLengths() error {
	if len(m.Err) > math.MaxUint16 {
		return fmt.Errorf("%w: error string too long", ErrBadFrame)
	}
	if len(m.Origin) > math.MaxUint16 {
		return fmt.Errorf("%w: origin ID too long", ErrBadFrame)
	}
	if len(m.Members) > math.MaxUint16 {
		return fmt.Errorf("%w: member list too long", ErrBadFrame)
	}
	for _, mem := range m.Members {
		if len(mem) > math.MaxUint16 {
			return fmt.Errorf("%w: member ID too long", ErrBadFrame)
		}
	}
	return nil
}

// WriteFrameV2 writes one checksummed frame to w as a single gather
// write (one syscall on a TCP connection).
func WriteFrameV2(w io.Writer, m *Message) error {
	bufs, sp, err := appendFrameV2(nil, m, nil)
	if err != nil {
		return err
	}
	_, err = bufs.WriteTo(w)
	releaseFrameScratch(sp)
	return err
}

// ReadFrame reads one frame from r, verifying its header and checksum.
// The returned message owns its memory.
func ReadFrame(r io.Reader) (*Message, error) {
	var m Message
	var buf []byte
	if err := readFrameInto(r, &m, &buf); err != nil {
		return nil, err
	}
	return &m, nil
}

// readFrameInto reads one frame from r into m, verifying its header and
// checksum. The body is read into *buf, which is grown (and replaced) only
// when the frame does not fit, and m is decoded in place (see Unmarshal):
// a loop that passes the same m and buf for every frame allocates nothing
// in steady state. The decoded m.Data aliases *buf, so it — like m's
// reused slices — is valid only until the next call with the same
// arguments; callers copy what they keep.
func readFrameInto(r io.Reader, m *Message, buf *[]byte) error {
	if cap(*buf) < FrameHdrV2Len {
		*buf = make([]byte, FrameHdrV2Len)
	}
	// The header is read into the body buffer: a local array would
	// escape through the io.Reader call and cost an allocation per frame.
	hdr := (*buf)[:FrameHdrV2Len]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err
	}
	if hdr[0] != FrameMagicV2 {
		return fmt.Errorf("%w: bad frame magic %#x", ErrBadFrame, hdr[0])
	}
	if hdr[1] != FrameVersion2 {
		return fmt.Errorf("%w: unsupported frame version %d", ErrBadFrame, hdr[1])
	}
	if hdr[2] != 0 || hdr[3] != 0 {
		return fmt.Errorf("%w: nonzero reserved frame bytes", ErrBadFrame)
	}
	n := binary.BigEndian.Uint32(hdr[4:8])
	sum := binary.BigEndian.Uint32(hdr[8:12])
	if n > MaxFrameBytes {
		return ErrFrameTooLarge
	}
	if int(n) > cap(*buf) {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	if crc32.Checksum(body, castagnoli) != sum {
		return ErrChecksum
	}
	return m.Unmarshal(body)
}
