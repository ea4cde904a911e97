// Package hbfile implements a file-backed heartbeat ring so that external
// processes can observe a Heartbeat-enabled application, mirroring the
// paper's reference implementation ("when the HB_heartbeat function is
// called, a new entry containing a timestamp, tag and thread ID is written
// into a file ... when an external service wants to get information on a
// Heartbeat-enabled program, the corresponding file is read; the target
// heart rates are also written into the appropriate file").
//
// The file holds a fixed-size header followed by a ring of fixed-size
// records. One process writes (the instrumented application, via
// heartbeat.WithSink); any number of processes read concurrently without
// coordinating with the writer. Consistency uses the same discipline as the
// in-memory store: each record embeds its sequence number, the header
// carries a monotone cursor, and targets are guarded by a version field
// bumped odd before and even after each update, so readers detect and retry
// or discard torn data instead of consuming it. This is a seqlock over a
// file — the closest idiomatic Go analogue of the shared memory buffer the
// paper standardizes for hardware observers.
//
// # Write granularity and the reserved head
//
// The writer stores a batch one contiguous ring segment at a time: each
// maximal run of consecutive sequence numbers that does not wrap the ring
// (capped at maxRun records, the writer's fixed encode buffer) is one
// positional write, followed by one cursor write for the whole batch. While
// such a write is in flight, every slot it covers is being overwritten at
// once, so the header carries a second monotone word next to the cursor,
// the reserved head:
//
//   - Writer: before touching any slot, a call whose highest sequence number
//     exceeds cursor+1 stores that number in the reserved head. A call that
//     only writes cursor+1 (the in-order single beat) or older sequence
//     numbers skips the store, so a direct beat stays two writes: record,
//     cursor. The word is never cleared — once the cursor catches up with it
//     it adds nothing to the rule below.
//   - Reader: after copying slots out it re-reads cursor and reserved head in
//     one 16-byte read and discards every slot whose successor one lap later
//     may have been in flight: want+capacity <= max(cursor+1, reserved).
//     Discarded records are counted by the caller as missed, exactly like
//     records overwritten outright.
//
// # Version policy
//
// The reserved head occupies header bytes that every earlier writer left
// zero, and a zero word makes the reader's rule collapse to the earlier
// one-slot guard (cursor+1), so the layout stays Version 1: files from an
// older writer read exactly as before, with no second decode path. An older
// reader ignores the word; against a segment-writing producer it is exposed
// only when it has fallen a full ring minus one batch behind — the same
// lapped regime in which it was already exposed to out-of-order beats.
package hbfile

import (
	"encoding/binary"
	"fmt"

	"repro/heartbeat"
)

// Format constants. Version bumps on any layout change.
//
//hbvet:api -- user need: the on-disk layout, for observers not written in Go (paper §3: the file is the interface)
const (
	Magic      = "APPHBv1\x00"
	Version    = 1
	HeaderSize = 128
	RecordSize = 32
)

// Header field offsets.
const (
	offMagic      = 0  // 8 bytes
	offVersion    = 8  // uint32
	offRecordSize = 12 // uint32
	offCapacity   = 16 // uint32
	offWindow     = 20 // uint32
	offPID        = 24 // uint64
	offTargetVer  = 32 // uint64, odd while target update in progress
	offTargetMin  = 40 // float64 bits
	offTargetMax  = 48 // float64 bits
	offCursor     = 56 // uint64, highest sequence number published
	offReserved   = 64 // uint64, highest sequence number any write in flight may cover (0: none beyond cursor+1); written before the slots, read together with offCursor
)

// maxRun caps one encoded segment, bounding each writer's encode buffer at
// 32 KB.
const maxRun = 1024

// Record field offsets (within a 32-byte record).
const (
	recOffSeq      = 0  // uint64
	recOffTime     = 8  // int64 unix nanos
	recOffTag      = 16 // int64
	recOffProducer = 24 // int32
)

var byteOrder = binary.LittleEndian

// header is the decoded file header (static fields only; cursor and target
// are re-read on demand since they change continuously).
type header struct {
	version    uint32
	recordSize uint32
	capacity   uint32
	window     uint32
	pid        uint64
}

func encodeStaticHeader(h header) []byte {
	buf := make([]byte, HeaderSize)
	copy(buf[offMagic:], Magic)
	byteOrder.PutUint32(buf[offVersion:], h.version)
	byteOrder.PutUint32(buf[offRecordSize:], h.recordSize)
	byteOrder.PutUint32(buf[offCapacity:], h.capacity)
	byteOrder.PutUint32(buf[offWindow:], h.window)
	byteOrder.PutUint64(buf[offPID:], h.pid)
	return buf
}

func decodeStaticHeader(buf []byte) (header, error) {
	if len(buf) < HeaderSize {
		return header{}, fmt.Errorf("hbfile: short header (%d bytes)", len(buf))
	}
	if string(buf[offMagic:offMagic+8]) != Magic {
		return header{}, fmt.Errorf("hbfile: bad magic %q", buf[offMagic:offMagic+8])
	}
	h := header{
		version:    byteOrder.Uint32(buf[offVersion:]),
		recordSize: byteOrder.Uint32(buf[offRecordSize:]),
		capacity:   byteOrder.Uint32(buf[offCapacity:]),
		window:     byteOrder.Uint32(buf[offWindow:]),
		pid:        byteOrder.Uint64(buf[offPID:]),
	}
	if h.version != Version {
		return header{}, fmt.Errorf("hbfile: unsupported version %d", h.version)
	}
	if h.recordSize != RecordSize {
		return header{}, fmt.Errorf("hbfile: unsupported record size %d", h.recordSize)
	}
	if h.capacity == 0 {
		return header{}, fmt.Errorf("hbfile: zero capacity")
	}
	return h, nil
}

// encodeRun encodes recs back to back into buf, reallocating it only when
// it is too small, and returns the encoded bytes. Callers keep the result
// as their scratch, so a warmed writer encodes without allocating.
func encodeRun(buf []byte, recs []heartbeat.Record) []byte {
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
		// The producer's upper half is padding; the buffer is reused, so
		// it is zeroed explicitly.
		byteOrder.PutUint64(b[recOffProducer:], uint64(uint32(r.Producer)))
	}
	return buf
}

func decodeRecord(buf []byte) heartbeat.Record {
	return heartbeat.Record{
		Seq:      byteOrder.Uint64(buf[recOffSeq:]),
		Time:     unixTime(int64(byteOrder.Uint64(buf[recOffTime:]))),
		Tag:      int64(byteOrder.Uint64(buf[recOffTag:])),
		Producer: int32(byteOrder.Uint32(buf[recOffProducer:])),
	}
}

// slotOffset returns the file offset of the ring slot holding seq.
func slotOffset(seq uint64, capacity uint32) int64 {
	return HeaderSize + int64((seq-1)%uint64(capacity))*RecordSize
}
