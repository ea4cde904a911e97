package hbfile

import (
	"fmt"
	"math"
	"os"

	"repro/heartbeat"
)

// Reader observes a heartbeat ring file written by another process (or the
// same one). Readers never block the writer and never coordinate with it;
// they detect overwritten or in-flight data and discard it. Reader is safe
// for concurrent use.
type Reader struct {
	f   *os.File
	hdr header
}

// Open opens an existing heartbeat ring file for observation.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("hbfile: open: %w", err)
	}
	buf := make([]byte, HeaderSize)
	if _, err := f.ReadAt(buf, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("hbfile: read header: %w", err)
	}
	hdr, err := decodeStaticHeader(buf)
	if err != nil {
		f.Close()
		return nil, err
	}
	// The writer sizes the ring before it writes the header, so a header
	// claiming more slots than the file holds is corrupt or hostile; left
	// unchecked, its capacity would size this reader's buffers.
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("hbfile: stat: %w", err)
	}
	if need := HeaderSize + int64(hdr.capacity)*RecordSize; st.Size() < need {
		f.Close()
		return nil, fmt.Errorf("hbfile: capacity %d needs %d bytes, file has %d", hdr.capacity, need, st.Size())
	}
	return &Reader{f: f, hdr: hdr}, nil
}

// Window returns the application's default averaging window.
func (r *Reader) Window() int { return int(r.hdr.window) }

// Capacity returns how many records the ring retains.
func (r *Reader) Capacity() int { return int(r.hdr.capacity) }

// PID returns the process id recorded by the writing application.
func (r *Reader) PID() uint64 { return r.hdr.pid }

// Cursor returns the total number of heartbeats published so far.
func (r *Reader) Cursor() (uint64, error) {
	var buf [8]byte
	if _, err := r.f.ReadAt(buf[:], offCursor); err != nil {
		return 0, fmt.Errorf("hbfile: read cursor: %w", err)
	}
	return byteOrder.Uint64(buf[:]), nil
}

// Target returns the advertised target range; ok is false when the
// application never set one. Torn updates are retried a bounded number of
// times.
func (r *Reader) Target() (min, max float64, ok bool, err error) {
	var buf [24]byte // ver, min, max are contiguous in the header
	const maxTries = 100
	for tries := 0; tries < maxTries; tries++ {
		if _, err := r.f.ReadAt(buf[:], offTargetVer); err != nil {
			return 0, 0, false, fmt.Errorf("hbfile: read target: %w", err)
		}
		v1 := byteOrder.Uint64(buf[0:8])
		if v1%2 == 1 {
			continue // writer mid-update
		}
		minBits := byteOrder.Uint64(buf[8:16])
		maxBits := byteOrder.Uint64(buf[16:24])
		var check [8]byte
		if _, err := r.f.ReadAt(check[:], offTargetVer); err != nil {
			return 0, 0, false, fmt.Errorf("hbfile: read target: %w", err)
		}
		if byteOrder.Uint64(check[:]) != v1 {
			continue // raced with an update
		}
		if v1 == 0 {
			return 0, 0, false, nil // never set
		}
		return math.Float64frombits(minBits), math.Float64frombits(maxBits), true, nil
	}
	return 0, 0, false, fmt.Errorf("hbfile: target read contended beyond %d retries", maxTries)
}

// Last returns up to n of the most recent records, oldest to newest.
// Records overwritten or in flight during the read are omitted.
func (r *Reader) Last(n int) ([]heartbeat.Record, error) {
	if n <= 0 {
		return nil, nil
	}
	cur, err := r.Cursor()
	if err != nil {
		return nil, err
	}
	if cur == 0 {
		return nil, nil
	}
	if uint64(n) > cur {
		n = int(cur)
	}
	if n > int(r.hdr.capacity) {
		n = int(r.hdr.capacity)
	}
	return r.readRange(cur-uint64(n)+1, n, nil)
}

// ReadSince returns the retained records with sequence numbers greater
// than since, oldest to newest, plus the cursor to resume from (pass it to
// the next ReadSince). max > 0 bounds the batch size; the cursor then
// stops at the last returned record so no record is skipped. When nothing
// new has been published the call costs a single 8-byte header read — the
// incremental alternative to re-reading and re-decoding the whole window
// every poll tick.
//
// Records older than the ring capacity are lost to overwrite; the caller
// detects that as cursor-since exceeding len(records).
func (r *Reader) ReadSince(since uint64, max int) ([]heartbeat.Record, uint64, error) {
	return r.ReadSinceInto(since, max, nil)
}

// ReadSinceInto is ReadSince decoding into buf when its capacity suffices
// (nil buf allocates) — the reuse hook that keeps a polling observer
// allocation-free. The returned records alias buf.
func (r *Reader) ReadSinceInto(since uint64, max int, buf []heartbeat.Record) ([]heartbeat.Record, uint64, error) {
	cur, err := r.Cursor()
	if err != nil {
		return nil, since, err
	}
	if cur <= since {
		// Idle — or, when cur < since, a recreated file (the caller's
		// cursor is foreign): return cur either way so the caller
		// resynchronizes rather than waiting for seqs that may never come.
		return nil, cur, nil
	}
	first := since + 1
	if cur-since > uint64(r.hdr.capacity) {
		first = cur - uint64(r.hdr.capacity) + 1
	}
	to := cur
	if max > 0 && to-first+1 > uint64(max) {
		to = first + uint64(max) - 1
	}
	recs, err := r.readRange(first, int(to-first+1), buf)
	if err != nil {
		return nil, since, err
	}
	return recs, to, nil
}

// readChunk is how many slots one positional read covers: an 8 KB buffer
// on the caller's stack, so reads neither allocate nor share state between
// concurrent callers.
const readChunk = 256

// readRange reads records [first, first+n) into buf (reallocated when too
// small), validating each slot seqlock-style against writer overwrites.
func (r *Reader) readRange(first uint64, n int, buf []heartbeat.Record) ([]heartbeat.Record, error) {
	out := buf[:0]
	if cap(out) < n {
		out = make([]heartbeat.Record, 0, n)
	}
	capacity := uint64(r.hdr.capacity)
	var raw [readChunk * RecordSize]byte
	for want, end := first, first+uint64(n); want < end; {
		// A chunk stops at the ring's last slot; the next one wraps.
		slot := (want - 1) % capacity
		k := min(end-want, capacity-slot, readChunk)
		b := raw[:k*RecordSize]
		if _, err := r.f.ReadAt(b, HeaderSize+int64(slot)*RecordSize); err != nil {
			return nil, fmt.Errorf("hbfile: read records: %w", err)
		}
		for i := uint64(0); i < k; i++ {
			// A mismatch is a slot not yet written, lapped, or torn.
			if rec := decodeRecord(b[i*RecordSize:]); rec.Seq == want+i {
				out = append(out, rec)
			}
		}
		want += k
	}
	// Seqlock validation: re-read how far the writer has got. It may be
	// mid-write of any slot up to the reserved head, and of cursor+1 in
	// any case, so a record one lap below either is suspect and dropped.
	// Those are the oldest records read, a prefix of out.
	var heads [16]byte // offCursor and offReserved are adjacent
	if _, err := r.f.ReadAt(heads[:], offCursor); err != nil {
		return nil, fmt.Errorf("hbfile: read cursor: %w", err)
	}
	inFlight := max(byteOrder.Uint64(heads[:8])+1, byteOrder.Uint64(heads[8:]))
	drop := 0
	for drop < len(out) && out[drop].Seq+capacity <= inFlight {
		drop++
	}
	if drop > 0 {
		out = out[:copy(out, out[drop:])]
	}
	return out, nil
}

// Rate computes the average heart rate over the last window records;
// window <= 0 uses the file's default window. ok is false with fewer than
// two readable records.
func (r *Reader) Rate(window int) (perSec float64, ok bool, err error) {
	if window <= 0 {
		window = int(r.hdr.window)
	}
	recs, err := r.Last(window)
	if err != nil {
		return 0, false, err
	}
	rate, ok := heartbeat.RateOf(recs)
	return rate.PerSec, ok, nil
}

// Stat returns the metadata of the opened file — the file as it was
// opened, not as the path currently resolves. A live tail compares it
// against os.Stat(path) (via os.SameFile) to notice that a restarted
// producer deleted and recreated the file, which this reader, holding the
// old inode, would otherwise report as a flatline forever.
func (r *Reader) Stat() (os.FileInfo, error) { return r.f.Stat() }

// Close closes the file.
func (r *Reader) Close() error { return r.f.Close() }
