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
// coordinating with the writer. Each record embeds its sequence number, the
// header carries a monotone cursor, and targets are guarded by a version
// field bumped odd before and even after each update, so readers detect and
// discard torn data instead of consuming it — the closest idiomatic Go
// analogue of the shared memory buffer the paper standardizes for hardware
// observers.
//
// # One layout, two access methods
//
// The ring layout and its protocol are shared with package hbshm: this
// package moves the bytes with pwrite and pread, hbshm with copies into and
// out of a shared mapping of the same file. A ring written by either is read
// correctly by either. The header (HeaderSize bytes) holds magic, version,
// record size, capacity and window as 32-bit words at offsets 0–20, then
// 64-bit words: pid at 24, the target version, minimum and maximum at 32–48,
// the cursor at 56, the reserved head at 64 and the closed word at 72.
//
// # Write granularity and the reserved head
//
// The writer stores a batch one contiguous ring segment at a time: each
// maximal run of consecutive sequence numbers that does not wrap the ring
// (capped at 1024 records, the writer's fixed encode buffer) is one
// positional write, followed by one cursor write for the whole batch. While
// such a write is in flight, every slot it covers is being overwritten at
// once, so the header carries a second monotone word next to the cursor,
// the reserved head:
//
//   - Writer: before touching any slot, a call whose highest sequence number
//     exceeds cursor+1 stores that number in the reserved head. A call that
//     only writes cursor+1 (the in-order single beat) or older sequence
//     numbers skips the store, so a direct beat stays two writes: record,
//     cursor. A record a full lap behind is not written at all: its slot
//     holds a newer record. A late record within the lap, behind the
//     cursor, is two writes, its body and then its sequence word, so a
//     reader that wants it never sees its number over a half-written body.
//     The reserved head is never cleared — once the cursor catches up
//     with it it adds nothing to the rule below.
//   - Reader: after copying slots out it re-reads cursor, reserved head and
//     closed word in one 24-byte read and discards every slot whose
//     successor one lap later may have been in flight:
//     want+capacity <= max(cursor+1, reserved). Discarded records are
//     counted by the caller as missed, exactly like records overwritten
//     outright.
//
// # Version policy
//
// The reserved head and the closed word occupy header bytes that every
// earlier writer left zero, and zero words make the reader's rule collapse
// to the earlier one-slot guard (cursor+1), so the layout stays Version 1:
// files from an older writer read exactly as before. Only hbshm's writer
// sets the closed word, when it closes; a ring this package writes never
// ends, and its readers return io.EOF only for a region hbshm closed.
package hbfile

import "repro/internal/hbring"

// Format constants. Version bumps on any layout change.
//
//hbvet:api -- user need: the on-disk layout, for observers not written in Go (paper §3: the file is the interface)
const (
	Magic      = hbring.Magic
	Version    = hbring.Version
	HeaderSize = hbring.HeaderSize
	RecordSize = hbring.RecordSize
)
