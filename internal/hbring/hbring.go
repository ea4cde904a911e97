// Package hbring is the one heartbeat ring: the layout, the header codec and
// the publication protocol that the ring file (package hbfile) and the
// shared-memory region (package hbshm) both store. The core writes through an
// io.WriterAt and reads through an io.ReaderAt; an access method is only what
// moves the bytes — pwrite and pread on an *os.File, or copies into and out of
// a shared mapping, whose 8-byte header words it loads and stores atomically.
//
// # Layout
//
// A file is a HeaderSize-byte header followed by a ring of RecordSize-byte
// slots; the record with sequence number seq lives in slot (seq-1) % capacity
// and carries seq in its first word. Header words, all little-endian:
//
//	 0  magic        8 bytes
//	 8  version      uint32
//	12  record size  uint32
//	16  capacity     uint32, ring slots
//	20  window       uint32, the application's default averaging window
//	24  pid          uint64, the writing process
//	32  target ver   uint64, odd while a target update is in progress
//	40  target min   float64 bits
//	48  target max   float64 bits
//	56  cursor       uint64, highest sequence number published
//	64  reserved     uint64, highest sequence number a write in flight may cover
//	72  closed       uint64, nonzero once a mapping writer closed the ring
//
// The reserved head and the closed word occupy bytes every earlier writer
// left zero, and a zero word changes nothing for a reader, so the layout is
// still Version 1. The append-only log (hbfile's LogWriter) keeps the same
// header under its own magic, with the cursor word counting its records.
//
// # Protocol
//
// One writer, any number of readers, no coordination between them:
//
//   - The writer stores the reserved head before touching any slot beyond
//     cursor+1, writes each run of consecutive sequence numbers that does not
//     wrap the ring as one write, and stores the cursor last. A record a
//     full lap behind the newest one published or in its own call is
//     skipped: its slot belongs to a newer record. A late record within the
//     last lap, behind the published cursor, is written in place in two
//     writes, its body and then its sequence word, so a reader that wants
//     it sees the slot's old sequence number until the record is whole.
//   - The reader copies slots, keeps those whose seq is the one it wants,
//     then re-reads cursor and reserved head and drops every slot whose
//     successor one lap later may have been in flight:
//     want+capacity <= max(cursor+1, reserved). A caller counts what is
//     dropped as missed, exactly like records overwritten outright.
//   - The target range is a seqlock of its own: the version word is bumped
//     odd before the pair is rewritten and even after.
//   - A reader whose cursor has caught up with a closed ring re-reads the
//     cursor and reports io.EOF only if nothing new arrived, because the
//     writer stores the closed word after the final cursor.
//
// The protocol asks two things of an access method. A read copies in
// address order, so a slot's sequence word is read no later than its body.
// A mapping loads 8-byte words one by one, atomically and in order; a file
// rests on the kernel copying a pread's bytes forward, which its copy
// routines do in practice but no interface promises. And one write is
// visible before the next begins: pwrite calls are ordered by the kernel,
// and a mapping stores a header or sequence word with an atomic swap,
// which no earlier copy can pass.
package hbring

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"repro/heartbeat"
)

// Format constants.
const (
	Magic      = "APPHBv1\x00"
	Version    = 1
	HeaderSize = 128
	RecordSize = 32
)

// Header word offsets (see the package documentation).
const (
	offVersion    = 8
	offRecordSize = 12
	offCapacity   = 16
	offWindow     = 20
	offPID        = 24
	offTargetVer  = 32
	offTargetMin  = 40
	offTargetMax  = 48
	offCursor     = 56 // read together with offReserved and offClosed
	offReserved   = 64
	offClosed     = 72
)

// Record field offsets within a slot; the producer's upper half is padding.
const (
	recOffSeq      = 0
	recOffTime     = 8
	recOffTag      = 16
	recOffProducer = 24
)

// maxRun caps one write, bounding each writer's encode buffer at 32 KB.
const maxRun = 1024

// readChunk is how many slots one read covers.
const readChunk = 256

var byteOrder = binary.LittleEndian

// Header is a file's static header.
type Header struct {
	Capacity uint32
	Window   uint32
	PID      uint64
}

// Size returns the byte size of a ring retaining capacity records
// advertising window, or an error when either is out of the header's range.
// Errors here and below begin with name, the access method's package.
func Size(name string, window, capacity int) (int64, error) {
	if window <= 0 || uint64(window) > math.MaxUint32 {
		return 0, fmt.Errorf("%s: invalid window %d", name, window)
	}
	if capacity <= 0 || uint64(capacity) > math.MaxUint32 {
		return 0, fmt.Errorf("%s: invalid capacity %d", name, capacity)
	}
	return HeaderSize + int64(capacity)*RecordSize, nil
}

// ReadHeader reads the static header through in and checks its magic,
// version and record size.
func ReadHeader(name string, in io.ReaderAt, magic string) (Header, error) {
	buf := make([]byte, HeaderSize)
	if _, err := in.ReadAt(buf, 0); err != nil {
		return Header{}, fmt.Errorf("%s: read header: %w", name, err)
	}
	if string(buf[:8]) != magic {
		return Header{}, fmt.Errorf("%s: bad magic %q", name, buf[:8])
	}
	if v := byteOrder.Uint32(buf[offVersion:]); v != Version {
		return Header{}, fmt.Errorf("%s: unsupported version %d", name, v)
	}
	if rs := byteOrder.Uint32(buf[offRecordSize:]); rs != RecordSize {
		return Header{}, fmt.Errorf("%s: unsupported record size %d", name, rs)
	}
	return Header{
		Capacity: byteOrder.Uint32(buf[offCapacity:]),
		Window:   byteOrder.Uint32(buf[offWindow:]),
		PID:      byteOrder.Uint64(buf[offPID:]),
	}, nil
}

// slotOffset returns the offset of the ring slot holding seq.
func slotOffset(seq, capacity uint64) int64 {
	return HeaderSize + int64((seq-1)%capacity)*RecordSize
}

// encode encodes recs back to back into buf, reallocating it only when it
// is too small, so a warmed writer encodes without allocating.
func encode(buf []byte, recs []heartbeat.Record) []byte {
	n := len(recs) * RecordSize
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	for i, r := range recs {
		b := buf[i*RecordSize : (i+1)*RecordSize]
		byteOrder.PutUint64(b[recOffSeq:], r.Seq)
		byteOrder.PutUint64(b[recOffTime:], uint64(r.Time.UnixNano()))
		byteOrder.PutUint64(b[recOffTag:], uint64(r.Tag))
		// The buffer is reused, so the padding is zeroed explicitly.
		byteOrder.PutUint64(b[recOffProducer:], uint64(uint32(r.Producer)))
	}
	return buf
}

// decode decodes the record in b, whose sequence number the caller has
// read as seq. It is small enough to inline, which keeps a read loop from
// copying each record through a call's result.
func decode(seq uint64, b *[RecordSize]byte) heartbeat.Record {
	return heartbeat.Record{
		Seq:      seq,
		Time:     time.Unix(0, int64(byteOrder.Uint64(b[recOffTime:]))),
		Tag:      int64(byteOrder.Uint64(b[recOffTag:])),
		Producer: int32(byteOrder.Uint32(b[recOffProducer:])),
	}
}
