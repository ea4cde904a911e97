package hbfile

import (
	"fmt"
	"os"

	"repro/heartbeat"
	"repro/internal/hbring"
)

// Reader observes a heartbeat ring file written by another process (or the
// same one). Readers never block the writer and never coordinate with it;
// they detect overwritten or in-flight data and discard it. Reader is safe
// for concurrent use.
//
//hbvet:api -- paper §3: an external observer's HB_current_rate and HB_get_history, read from the ring file
type Reader struct {
	f    *os.File
	ring *hbring.Reader
}

// Open opens an existing heartbeat ring file for observation. A header
// claiming more slots than the file holds is rejected: the writer sizes the
// ring before it writes the header.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("hbfile: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("hbfile: stat: %w", err)
	}
	ring, err := hbring.Open("hbfile", f, st.Size())
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Reader{f: f, ring: ring}, nil
}

// Window returns the application's default averaging window.
func (r *Reader) Window() int { return int(r.ring.Window) }

// Capacity returns how many records the ring retains.
func (r *Reader) Capacity() int { return int(r.ring.Capacity) }

// PID returns the process id recorded by the writing application.
func (r *Reader) PID() uint64 { return r.ring.PID }

// Cursor returns the total number of heartbeats published so far.
func (r *Reader) Cursor() (uint64, error) { return r.ring.Cursor() }

// Target returns the advertised target range; ok is false when the
// application never set one. Torn updates are retried a bounded number of
// times.
func (r *Reader) Target() (min, max float64, ok bool, err error) { return r.ring.Target() }

// Last returns up to n of the most recent records, oldest to newest.
// Records overwritten or in flight during the read are omitted.
func (r *Reader) Last(n int) ([]heartbeat.Record, error) { return r.ring.Last(n) }

// ReadSince returns the retained records with sequence numbers greater
// than since, oldest to newest, plus the cursor to resume from (pass it to
// the next ReadSince). max > 0 bounds the batch size; the cursor then
// stops at the last returned record so no record is skipped. When nothing
// new has been published the call costs a single 24-byte header read — the
// incremental alternative to re-reading and re-decoding the whole window
// every poll tick.
//
// Records older than the ring capacity are lost to overwrite; the caller
// detects that as cursor-since exceeding len(records). A cursor behind
// since (a recreated file) is returned as is, so the caller resynchronizes.
func (r *Reader) ReadSince(since uint64, max int) ([]heartbeat.Record, uint64, error) {
	return r.ring.ReadSinceInto(since, max, nil)
}

// ReadSinceInto is ReadSince decoding into buf when its capacity suffices
// (nil buf allocates) — the reuse hook that keeps a polling observer
// allocation-free. The returned records alias buf.
func (r *Reader) ReadSinceInto(since uint64, max int, buf []heartbeat.Record) ([]heartbeat.Record, uint64, error) {
	return r.ring.ReadSinceInto(since, max, buf)
}

// Rate computes the average heart rate over the last window records;
// window <= 0 uses the file's default window. ok is false with fewer than
// two readable records.
func (r *Reader) Rate(window int) (perSec float64, ok bool, err error) { return r.ring.Rate(window) }

// Stat returns the metadata of the opened file — the file as it was
// opened, not as the path currently resolves. A live tail compares it
// against os.Stat(path) (via os.SameFile) to notice that a restarted
// producer deleted and recreated the file, which this reader, holding the
// old inode, would otherwise report as a flatline forever.
func (r *Reader) Stat() (os.FileInfo, error) { return r.f.Stat() }

// Close closes the file.
func (r *Reader) Close() error { return r.f.Close() }
