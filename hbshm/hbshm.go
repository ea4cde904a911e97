// Package hbshm implements a shared-memory heartbeat ring: the same
// register-and-read observation contract as the file ring (package hbfile),
// but over a memory-mapped region, so publishing a heartbeat is a copy into
// mapped memory and observing one is a copy out — no write(2)/read(2) round
// trip through the kernel on either side. This is the closest realization
// of the paper's standardized shared-memory heartbeat buffer ("the
// heartbeat data structure is registered ... other applications, or system
// software, can then read this data structure"): producer and observer are
// separate processes coordinating only through the bytes of one shared
// mapping.
//
// The region is hbfile's ring file — the same header, slots and protocol
// (cursor, reserved head, target version word) — reached through a
// mapping instead of pread and pwrite, so a region is readable by
// hbfile.Open and a ring file by Open. It is backed by any mmap-able file
// (a tmpfs path such as /dev/shm/... keeps it purely in memory). One
// process writes; any number of processes map it read-only and read
// concurrently without coordinating with the writer. Slots carry no lock
// word of their own: runs of records are copied in whole, a late record's
// sequence word is stored after its body, slots are loaded word by word in
// address order, and a reader keeps a slot only when its sequence number
// matches and the cursor and reserved head, re-read after the copy, show
// that no write could have been rewriting it. Anything else surfaces
// through cursor arithmetic as Missed, never as corrupt data. Unlike a
// ring file, a region ends: Close stores the header's closed word, after
// which readers drain and see io.EOF.
package hbshm

import (
	"encoding/binary"
	"io"
	"sync/atomic"
	"unsafe"

	"repro/internal/hbring"
)

// region is the mapping access method: the core's reads and writes as
// loads and stores on the mapped bytes. Every read the core makes is whole
// aligned 8-byte words (the mapping is page-aligned), loaded atomically and
// in address order, so a slot's sequence word is loaded before its body.
// A run of slots is stored with copy; a single word — a header word, or a
// late record's sequence word — with an atomic swap, a full barrier no
// earlier copy can pass. Words move in native byte order: the bytes are the
// same on both sides, only moved atomically.
type region []byte

func (m region) word(off int64) *atomic.Uint64 {
	return (*atomic.Uint64)(unsafe.Pointer(&m[off]))
}

func (m region) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off+int64(len(p)) > int64(len(m)) {
		return 0, io.EOF
	}
	for i := 0; i < len(p); i += 8 {
		binary.NativeEndian.PutUint64(p[i:], m.word(off+int64(i)).Load())
	}
	return len(p), nil
}

func (m region) WriteAt(p []byte, off int64) (int, error) {
	if off >= hbring.HeaderSize && len(p) != 8 {
		return copy(m[off:], p), nil
	}
	for i := 0; i < len(p); i += 8 {
		m.word(off + int64(i)).Swap(binary.NativeEndian.Uint64(p[i:]))
	}
	return len(p), nil
}

// LoadWord loads the little-endian header word at off in place, sparing
// an idle reader the buffered read.
func (m region) LoadWord(off int64) uint64 {
	var b [8]byte
	binary.NativeEndian.PutUint64(b[:], m.word(off).Load())
	return binary.LittleEndian.Uint64(b[:])
}
