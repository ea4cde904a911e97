package hbfile

import (
	"fmt"
	"math"
	"os"
	"sync"

	"repro/heartbeat"
	"repro/internal/hbring"
)

// logMagic identifies the append-only variant of the heartbeat file.
//
// The ring file (Writer/Reader) bounds history, which §3 recommends for
// efficiency; the paper's reference implementation, however, keeps the
// complete history ("the HB_get_history function can support any value for
// n because the entire heartbeat history is kept in the file"). LogWriter/
// LogReader reproduce that behaviour: every heartbeat is appended, and
// observers can read any range of the full history at the cost of
// unbounded file growth.
const logMagic = "APPHBL1\x00"

// LogWriter appends heartbeats to a log file. It implements
// heartbeat.BatchSink and heartbeat.TargetSink. One process writes a given
// file; within it, LogWriter is safe for concurrent use.
type LogWriter struct {
	mu sync.Mutex
	fileWriter
}

var (
	_ heartbeat.TargetSink = (*LogWriter)(nil)
	_ heartbeat.BatchSink  = (*LogWriter)(nil)
)

// CreateLog creates (or truncates) an append-only heartbeat log.
func CreateLog(path string, window int) (*LogWriter, error) {
	if window <= 0 {
		return nil, fmt.Errorf("hbfile: invalid window %d", window)
	}
	fw, err := create(path, logMagic, window, 0, HeaderSize)
	if err != nil {
		return nil, err
	}
	return &LogWriter{fileWriter: fw}, nil
}

// WriteRecord appends one heartbeat (heartbeat.Sink): a batch of one.
// Records are stored in arrival order; each embeds its sequence number, so
// observers can reorder if concurrent producers interleave.
func (w *LogWriter) WriteRecord(r heartbeat.Record) error {
	one := [1]heartbeat.Record{r}
	return w.WriteRecords(one[:])
}

// WriteRecords appends a batch (heartbeat.BatchSink): one write of the
// encoded records (one per 1024 records for a larger batch) and one of
// the count, instead of two per record. The batch is validated as a whole
// before anything is written; a failed append loses its records, is
// reported (first error wins) and does not stop the rest.
func (w *LogWriter) WriteRecords(recs []heartbeat.Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errClosed
	}
	return w.ring.Append(recs)
}

// WriteTarget publishes the target range (heartbeat.TargetSink).
func (w *LogWriter) WriteTarget(min, max float64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeTarget(min, max)
}

// Close flushes and closes the log. Idempotent.
func (w *LogWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.close()
}

// LogReader observes an append-only heartbeat log, possibly while another
// process is appending to it.
//
//hbvet:api -- paper §3: the reference implementation's append-only file, read by an external observer
type LogReader struct {
	f      *os.File
	window int
}

// OpenLog opens a heartbeat log for observation.
func OpenLog(path string) (*LogReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("hbfile: open log: %w", err)
	}
	h, err := hbring.ReadHeader("hbfile log", f, logMagic)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &LogReader{f: f, window: int(h.Window)}, nil
}

// Window returns the application's default averaging window.
func (r *LogReader) Window() int { return r.window }

// Count returns the number of records appended so far. The header's
// count word is input from outside the program, so it is clamped to the
// records the file is long enough to hold.
func (r *LogReader) Count() (uint64, error) {
	_, count, err := hbring.ReadLog("hbfile", r.f, 0, 0, nil)
	return count, err
}

// Read returns n records starting at index from (0-based, in append
// order). It clips to the available range — the full history is always
// addressable, matching the reference implementation's unbounded
// HB_get_history.
func (r *LogReader) Read(from uint64, n int) ([]heartbeat.Record, error) {
	recs, _, err := hbring.ReadLog("hbfile", r.f, from, n, nil)
	return recs, err
}

// ReadSinceInto returns the records appended after the first since,
// oldest to newest, plus the cursor to resume from (the count consumed so
// far; pass it to the next call). max > 0 bounds the batch size — the
// cursor then stops at the last returned record, so a tailing observer
// pages through a large backlog without skipping anything. When nothing
// new has been appended the call costs a single 8-byte header read. This
// is the incremental tail over the full-history log: no record is ever
// re-read. Records are decoded into buf when its capacity suffices (nil
// buf allocates; see Reader.ReadSinceInto).
func (r *LogReader) ReadSinceInto(since uint64, max int, buf []heartbeat.Record) ([]heartbeat.Record, uint64, error) {
	if max <= 0 {
		max = math.MaxInt
	}
	recs, count, err := hbring.ReadLog("hbfile", r.f, since, max, buf)
	if err != nil {
		return nil, since, err
	}
	if count <= since {
		// Idle, or a recreated (shorter) file: return the file's count so
		// the caller resynchronizes.
		return nil, count, nil
	}
	return recs, since + uint64(len(recs)), nil
}

// Last returns the most recent n records in append order.
func (r *LogReader) Last(n int) ([]heartbeat.Record, error) {
	count, err := r.Count()
	if err != nil || n <= 0 {
		return nil, err
	}
	return r.Read(count-min(uint64(n), count), n)
}

// Target returns the advertised target range, if set, under the same
// version-word discipline as the ring reader.
func (r *LogReader) Target() (min, max float64, ok bool, err error) {
	return hbring.ReadTarget("hbfile log", r.f)
}

// Rate computes the average heart rate over the last window records
// (window <= 0: the file's default window).
func (r *LogReader) Rate(window int) (perSec float64, ok bool, err error) {
	if window <= 0 {
		window = r.window
	}
	recs, err := r.Last(window)
	if err != nil {
		return 0, false, err
	}
	rate, ok := heartbeat.RateOf(recs)
	return rate.PerSec, ok, nil
}

// Stat returns the metadata of the opened file (see Reader.Stat): the
// recreation-detection hook for live tails.
func (r *LogReader) Stat() (os.FileInfo, error) { return r.f.Stat() }

// Close closes the log file.
func (r *LogReader) Close() error { return r.f.Close() }
