package hbfile

import (
	"fmt"
	"math"
	"os"
	"sync"

	"repro/heartbeat"
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
	count uint64
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
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("hbfile: create log: %w", err)
	}
	buf := make([]byte, HeaderSize)
	copy(buf[offMagic:], logMagic)
	byteOrder.PutUint32(buf[offVersion:], Version)
	byteOrder.PutUint32(buf[offRecordSize:], RecordSize)
	byteOrder.PutUint32(buf[offWindow:], uint32(window))
	byteOrder.PutUint64(buf[offPID:], uint64(os.Getpid()))
	if _, err := f.WriteAt(buf, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("hbfile: write log header: %w", err)
	}
	return &LogWriter{fileWriter: fileWriter{f: f, out: f}}, nil
}

// WriteRecord appends one heartbeat (heartbeat.Sink): a batch of one.
// Records are stored in arrival order; each embeds its sequence number, so
// observers can reorder if concurrent producers interleave.
func (w *LogWriter) WriteRecord(r heartbeat.Record) error {
	one := [1]heartbeat.Record{r}
	return w.WriteRecords(one[:])
}

// WriteRecords appends a batch (heartbeat.BatchSink): one write of the
// encoded records (one per maxRun records for a larger batch) and one of
// the count, instead of two per record. The batch is validated as a whole
// before anything is written; a failed append loses its records, is
// reported (first error wins) and does not stop the rest.
func (w *LogWriter) WriteRecords(recs []heartbeat.Record) error {
	for _, r := range recs {
		if r.Seq == 0 {
			return fmt.Errorf("hbfile: record with zero sequence number")
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("hbfile: writer closed")
	}
	var firstErr error
	count := w.count
	for len(recs) > 0 {
		n := min(len(recs), maxRun)
		w.scratch = encodeRun(w.scratch, recs[:n])
		recs = recs[n:]
		if _, err := w.out.WriteAt(w.scratch, HeaderSize+int64(count)*RecordSize); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("hbfile: append records: %w", err)
			}
			continue
		}
		count += uint64(n)
	}
	if count > w.count {
		// A count that failed to reach the file is not remembered either:
		// the next append overwrites what readers never saw.
		if err := w.putWord(offCursor, count); err == nil {
			w.count = count
		} else if firstErr == nil {
			firstErr = fmt.Errorf("hbfile: write count: %w", err)
		}
	}
	return firstErr
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
	buf := make([]byte, HeaderSize)
	if _, err := f.ReadAt(buf, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("hbfile: read log header: %w", err)
	}
	if string(buf[offMagic:offMagic+8]) != logMagic {
		f.Close()
		return nil, fmt.Errorf("hbfile: not a heartbeat log (magic %q)", buf[offMagic:offMagic+8])
	}
	if v := byteOrder.Uint32(buf[offVersion:]); v != Version {
		f.Close()
		return nil, fmt.Errorf("hbfile: unsupported log version %d", v)
	}
	return &LogReader{f: f, window: int(byteOrder.Uint32(buf[offWindow:]))}, nil
}

// Window returns the application's default averaging window.
func (r *LogReader) Window() int { return r.window }

// Count returns the number of records appended so far. The header's count
// word is input from outside the program, and — unlike a ring's capacity —
// cannot be bounded once at open, because a log grows: every call clamps it
// to the records the file is long enough to hold, so no read is ever sized
// from (or pointed past the end by) a corrupt or hostile count.
func (r *LogReader) Count() (uint64, error) {
	var buf [8]byte
	if _, err := r.f.ReadAt(buf[:], offCursor); err != nil {
		return 0, fmt.Errorf("hbfile: read count: %w", err)
	}
	fi, err := r.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("hbfile: stat log: %w", err)
	}
	var held uint64
	if size := fi.Size(); size > HeaderSize {
		held = uint64(size-HeaderSize) / RecordSize
	}
	return min(byteOrder.Uint64(buf[:]), held), nil
}

// Read returns n records starting at index from (0-based, in append
// order). It clips to the available range — the full history is always
// addressable, matching the reference implementation's unbounded
// HB_get_history.
func (r *LogReader) Read(from uint64, n int) ([]heartbeat.Record, error) {
	count, err := r.Count()
	if err != nil {
		return nil, err
	}
	return r.read(from, n, count, nil)
}

// read is Read against an already fetched count, decoding into buf
// (reallocated when too small).
func (r *LogReader) read(from uint64, n int, count uint64, buf []heartbeat.Record) ([]heartbeat.Record, error) {
	if from >= count || n <= 0 {
		return nil, nil
	}
	if uint64(n) > count-from {
		n = int(count - from)
	}
	out := buf[:0]
	if cap(out) < n {
		out = make([]heartbeat.Record, 0, n)
	}
	var raw [readChunk * RecordSize]byte
	for len(out) < n {
		b := raw[:min(n-len(out), readChunk)*RecordSize]
		if _, err := r.f.ReadAt(b, HeaderSize+int64(from+uint64(len(out)))*RecordSize); err != nil {
			return nil, fmt.Errorf("hbfile: read log records: %w", err)
		}
		for ; len(b) > 0; b = b[RecordSize:] {
			out = append(out, decodeRecord(b))
		}
	}
	return out, nil
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
	count, err := r.Count()
	if err != nil {
		return nil, since, err
	}
	if count <= since {
		// Idle, or a recreated (shorter) file: return the file's count so
		// the caller resynchronizes.
		return nil, count, nil
	}
	n := count - since
	if max > 0 && n > uint64(max) {
		n = uint64(max)
	}
	recs, err := r.read(since, int(n), count, buf)
	if err != nil {
		return nil, since, err
	}
	return recs, since + uint64(len(recs)), nil
}

// Last returns the most recent n records in append order.
func (r *LogReader) Last(n int) ([]heartbeat.Record, error) {
	count, err := r.Count()
	if err != nil {
		return nil, err
	}
	if n <= 0 || count == 0 {
		return nil, nil
	}
	from := uint64(0)
	if uint64(n) < count {
		from = count - uint64(n)
	}
	return r.read(from, n, count, nil)
}

// Target returns the advertised target range, if set.
func (r *LogReader) Target() (min, max float64, ok bool, err error) {
	// Same seqlock discipline as the ring reader.
	var buf [24]byte
	const maxTries = 100
	for tries := 0; tries < maxTries; tries++ {
		if _, err := r.f.ReadAt(buf[:], offTargetVer); err != nil {
			return 0, 0, false, err
		}
		v1 := byteOrder.Uint64(buf[0:8])
		if v1%2 == 1 {
			continue
		}
		minBits := byteOrder.Uint64(buf[8:16])
		maxBits := byteOrder.Uint64(buf[16:24])
		var check [8]byte
		if _, err := r.f.ReadAt(check[:], offTargetVer); err != nil {
			return 0, 0, false, err
		}
		if byteOrder.Uint64(check[:]) != v1 {
			continue
		}
		if v1 == 0 {
			return 0, 0, false, nil
		}
		return math.Float64frombits(minBits), math.Float64frombits(maxBits), true, nil
	}
	return 0, 0, false, fmt.Errorf("hbfile: log target read contended")
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
