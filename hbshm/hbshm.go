// Package hbshm implements a shared-memory heartbeat ring: the same
// register-and-read observation contract as the file ring (package hbfile),
// but over a memory-mapped region, so publishing a heartbeat is a handful
// of ordinary stores into mapped memory and observing one is a load — no
// write(2)/read(2) round trip through the kernel on either side. This is
// the closest realization of the paper's standardized shared-memory
// heartbeat buffer ("the heartbeat data structure is registered ... other
// applications, or system software, can then read this data structure"):
// producer and observer are separate processes coordinating only through
// the bytes of one shared mapping.
//
// The region is a fixed-size header followed by a ring of fixed-size
// record slots, backed by any mmap-able file (a tmpfs path such as
// /dev/shm/... keeps it purely in memory). One process writes; any number
// of processes map it read-only and read concurrently without
// coordinating with the writer. Consistency uses the same seqlock
// discipline as the in-memory store (internal/ring) and the file ring:
// each slot's sequence word is zeroed before its fields are rewritten and
// set last, so a reader that loads the expected sequence number, copies
// the fields, and re-loads the same sequence number is guaranteed an
// untorn record — anything else is skipped and surfaces through cursor
// arithmetic as Missed, never as corrupt data.
package hbshm

import (
	"encoding/binary"
	"fmt"
)

// Format constants. Version bumps on any layout change.
//
//hbvet:api -- user need: the region's layout, for observers not written in Go
const (
	// Magic identifies a shared-memory heartbeat region (8 bytes).
	Magic      = "HBSHMv1\x00"
	Version    = 1
	HeaderSize = 128
	RecordSize = 32
)

// Header field offsets. Every mutable field sits on its own 8-byte word so
// it can be addressed atomically through the mapping; the mapping itself
// is page-aligned, keeping each offset naturally aligned.
const (
	offMagic      = 0  // 8 bytes
	offVersion    = 8  // uint32
	offRecordSize = 12 // uint32
	offCapacity   = 16 // uint64, ring slots
	offWindow     = 24 // uint64, advertised averaging window
	offHead       = 32 // uint64 atomic, highest published sequence number
	offClosed     = 40 // uint64 atomic, nonzero once the writer closed
	offTargetVer  = 48 // uint64 atomic, odd while a target update is in progress
	offTargetMin  = 56 // float64 bits
	offTargetMax  = 64 // float64 bits
)

// Record slot field offsets (within a 32-byte slot). seq doubles as the
// slot's seqlock word: 0 while the slot is being rewritten.
const (
	recOffSeq      = 0  // uint64 atomic
	recOffTime     = 8  // int64 unix nanos
	recOffTag      = 16 // int64
	recOffProducer = 24 // int32
)

var byteOrder = binary.LittleEndian

// regionSize returns the byte size of a region retaining capacity records.
func regionSize(capacity int) int {
	return HeaderSize + capacity*RecordSize
}

// slotOff returns the region offset of the ring slot holding seq. mask is
// capacity-1: capacity is always a power of two (Create rounds up,
// checkHeader rejects anything else) precisely so this is a mask and not a
// hardware divide on every record on both sides of the mapping.
func slotOff(seq, mask uint64) int {
	return HeaderSize + int((seq-1)&mask)*RecordSize
}

// nextPow2 rounds n up to the next power of two.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// checkHeader validates the static header fields of a mapped region.
func checkHeader(mem []byte) (capacity, window uint64, err error) {
	if len(mem) < HeaderSize {
		return 0, 0, fmt.Errorf("hbshm: short region (%d bytes)", len(mem))
	}
	if string(mem[offMagic:offMagic+8]) != Magic {
		return 0, 0, fmt.Errorf("hbshm: bad magic %q", mem[offMagic:offMagic+8])
	}
	if v := byteOrder.Uint32(mem[offVersion:]); v != Version {
		return 0, 0, fmt.Errorf("hbshm: unsupported version %d", v)
	}
	if rs := byteOrder.Uint32(mem[offRecordSize:]); rs != RecordSize {
		return 0, 0, fmt.Errorf("hbshm: unsupported record size %d", rs)
	}
	capacity = byteOrder.Uint64(mem[offCapacity:])
	window = byteOrder.Uint64(mem[offWindow:])
	if capacity == 0 || capacity&(capacity-1) != 0 {
		return 0, 0, fmt.Errorf("hbshm: capacity %d is not a power of two", capacity)
	}
	// Divide rather than multiply: a hostile capacity of 2^58 or more
	// would wrap regionSize past the region's length and be accepted.
	if capacity > uint64(len(mem)-HeaderSize)/RecordSize {
		return 0, 0, fmt.Errorf("hbshm: region truncated: %d bytes for capacity %d", len(mem), capacity)
	}
	return capacity, window, nil
}
