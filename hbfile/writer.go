package hbfile

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"repro/heartbeat"
)

// Writer publishes heartbeats into a ring file for external observers.
// It implements heartbeat.BatchSink and heartbeat.TargetSink, so it is
// normally attached with heartbeat.WithSink. A file has exactly one writing process;
// within that process Writer is safe for concurrent use.
//
// Every write costs one positional write per contiguous ring segment, not
// per record: a batch is split into maximal runs of consecutive sequence
// numbers that do not wrap the ring, each run is encoded into one reusable
// buffer and stored with a single write, and the cursor is stored once at
// the end. An in-order 1024-record batch is 3 writes (reserved head, run,
// cursor; 4 when it wraps), an in-order single record is 2 (record,
// cursor). See the package documentation for the reserved head.
type Writer struct {
	mu sync.Mutex
	fileWriter
	capacity uint32
	cursor   uint64 // highest sequence number published
	reserved uint64 // reserved head as last stored
}

var (
	_ heartbeat.TargetSink = (*Writer)(nil)
	_ heartbeat.BatchSink  = (*Writer)(nil)
)

// fileWriter is what the ring and log writers share: the file, the header
// words both layouts keep at the same offsets, and the encode buffer. The
// embedding writer's lock guards it.
type fileWriter struct {
	f         *os.File
	out       io.WriterAt // f; the seam tests count and fail writes through
	scratch   []byte      // encodeRun's buffer, at most maxRun records
	word      [8]byte     // putWord's buffer
	targetVer uint64
	closed    bool
}

// putWord stores one 8-byte header word.
func (w *fileWriter) putWord(off int64, v uint64) error {
	byteOrder.PutUint64(w.word[:], v)
	_, err := w.out.WriteAt(w.word[:], off)
	return err
}

// writeTarget publishes the target range under its version word: odd
// while the update is in progress, even once it is stable.
func (w *fileWriter) writeTarget(min, max float64) error {
	if w.closed {
		return fmt.Errorf("hbfile: writer closed")
	}
	w.targetVer++
	if err := w.putWord(offTargetVer, w.targetVer); err != nil {
		return fmt.Errorf("hbfile: write target version: %w", err)
	}
	if err := w.putWord(offTargetMin, math.Float64bits(min)); err != nil {
		return fmt.Errorf("hbfile: write target min: %w", err)
	}
	if err := w.putWord(offTargetMax, math.Float64bits(max)); err != nil {
		return fmt.Errorf("hbfile: write target max: %w", err)
	}
	w.targetVer++
	if err := w.putWord(offTargetVer, w.targetVer); err != nil {
		return fmt.Errorf("hbfile: write target version: %w", err)
	}
	return nil
}

// close flushes and closes the file; idempotent.
func (w *fileWriter) close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Create creates (or truncates) a heartbeat ring file retaining capacity
// records and advertising the application's default window.
func Create(path string, window, capacity int) (*Writer, error) {
	if window <= 0 {
		return nil, fmt.Errorf("hbfile: invalid window %d", window)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("hbfile: invalid capacity %d", capacity)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("hbfile: create: %w", err)
	}
	hdr := header{
		version:    Version,
		recordSize: RecordSize,
		capacity:   uint32(capacity),
		window:     uint32(window),
		pid:        uint64(os.Getpid()),
	}
	// Size the ring before the header makes the file openable, so readers
	// never see a header whose ring is not there yet (Open rejects that).
	if err := f.Truncate(HeaderSize + int64(capacity)*RecordSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("hbfile: truncate: %w", err)
	}
	if _, err := f.WriteAt(encodeStaticHeader(hdr), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("hbfile: write header: %w", err)
	}
	return &Writer{fileWriter: fileWriter{f: f, out: f}, capacity: uint32(capacity)}, nil
}

// WriteRecord publishes one heartbeat record (heartbeat.Sink): a batch of
// one. Records may arrive out of sequence order when multiple goroutines
// beat concurrently; the cursor only ever moves forward.
func (w *Writer) WriteRecord(r heartbeat.Record) error {
	one := [1]heartbeat.Record{r}
	return w.WriteRecords(one[:])
}

// WriteRecords publishes a batch of records (heartbeat.BatchSink): the
// file lock is taken once, each contiguous ring segment of the batch is one
// write, and the cursor is advanced once, so the aggregator's shard merges
// pay per-batch, not per-record, bookkeeping and I/O. The batch is
// validated as a whole before anything is written. Records out of order or
// with gaps still land; they only make the segments shorter.
func (w *Writer) WriteRecords(recs []heartbeat.Record) error {
	// Validate the whole batch before touching the file so an invalid
	// batch is rejected without being applied at all.
	var maxSeq uint64
	for _, r := range recs {
		if r.Seq == 0 {
			return fmt.Errorf("hbfile: record with zero sequence number")
		}
		if r.Seq > maxSeq {
			maxSeq = r.Seq
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("hbfile: writer closed")
	}
	// Readers distrust only the slot of cursor+1 unless told otherwise:
	// announce how far this call reaches before any slot changes.
	if maxSeq > w.cursor+1 && maxSeq > w.reserved {
		if err := w.putWord(offReserved, maxSeq); err != nil {
			// Readers were not warned, so no slot may be touched.
			return fmt.Errorf("hbfile: write reserved head: %w", err)
		}
		w.reserved = maxSeq
	}
	// An I/O failure loses that run but keeps writing the rest — the
	// batch is the aggregator's only delivery of these records, so one bad
	// write must not drop its successors. The first error is reported; the
	// cursor advances over whatever landed. A batch longer than the ring
	// is written in ring order, later laps over earlier ones, like the
	// beats it stands for.
	var firstErr error
	cursor := w.cursor
	for len(recs) > 0 {
		// The run ends at a sequence break, at the ring's last slot, or
		// at the encode buffer's size.
		first := recs[0].Seq
		room := min(uint64(w.capacity)-(first-1)%uint64(w.capacity), maxRun)
		n := 1
		for n < len(recs) && uint64(n) < room && recs[n].Seq == first+uint64(n) {
			n++
		}
		w.scratch = encodeRun(w.scratch, recs[:n])
		recs = recs[n:]
		if _, err := w.out.WriteAt(w.scratch, slotOffset(first, w.capacity)); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("hbfile: write records: %w", err)
			}
			continue
		}
		if last := first + uint64(n) - 1; last > cursor {
			cursor = last
		}
	}
	if cursor > w.cursor {
		// A cursor that failed to reach the file is not remembered either,
		// so the next call reserves and publishes from what readers see.
		if err := w.putWord(offCursor, cursor); err == nil {
			w.cursor = cursor
		} else if firstErr == nil {
			firstErr = fmt.Errorf("hbfile: write cursor: %w", err)
		}
	}
	return firstErr
}

// WriteTarget publishes the target heart-rate range
// (heartbeat.TargetSink). Readers validate against the version field.
func (w *Writer) WriteTarget(min, max float64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.writeTarget(min, max)
}

// Sync flushes the file to stable storage. Observers on the same host read
// through the page cache and do not require it.
//
//hbvet:api -- user need: make the file durable before the host goes down
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("hbfile: writer closed")
	}
	return w.f.Sync()
}

// Cursor returns the highest sequence number published so far.
func (w *Writer) Cursor() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cursor
}

// Close flushes and closes the file. Close is idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.close()
}

func unixTime(nanos int64) time.Time { return time.Unix(0, nanos) }
