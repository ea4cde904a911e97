package hbfile

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/heartbeat"
	"repro/internal/hbring"
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
}

var (
	_ heartbeat.TargetSink = (*Writer)(nil)
	_ heartbeat.BatchSink  = (*Writer)(nil)
)

// fileWriter is what the ring and log writers share: the file and the
// core writer over it. The embedding writer's lock guards it.
type fileWriter struct {
	f      *os.File
	ring   *hbring.Writer
	closed bool
}

// create creates (or truncates) path, sizes it and writes its header.
// Sizing comes first, so readers never see a header whose ring is not
// there yet (Open rejects that).
func create(path, magic string, window, capacity int, size int64) (fileWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fileWriter{}, fmt.Errorf("hbfile: create: %w", err)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return fileWriter{}, fmt.Errorf("hbfile: truncate: %w", err)
	}
	ring, err := hbring.Create("hbfile", f, magic, window, capacity)
	if err != nil {
		f.Close()
		return fileWriter{}, err
	}
	return fileWriter{f: f, ring: ring}, nil
}

var errClosed = errors.New("hbfile: writer closed")

// writeTarget publishes the target range under its version word.
func (w *fileWriter) writeTarget(min, max float64) error {
	if w.closed {
		return errClosed
	}
	return w.ring.WriteTarget(min, max)
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
	size, err := hbring.Size("hbfile", window, capacity)
	if err != nil {
		return nil, err
	}
	fw, err := create(path, hbring.Magic, window, capacity, size)
	if err != nil {
		return nil, err
	}
	return &Writer{fileWriter: fw}, nil
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
// with gaps still land; they only make the segments shorter. An I/O failure
// loses that segment, is reported (first error wins) and does not stop the
// rest.
func (w *Writer) WriteRecords(recs []heartbeat.Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errClosed
	}
	return w.ring.WriteRecords(recs)
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
		return errClosed
	}
	return w.f.Sync()
}

// Cursor returns the highest sequence number published so far.
func (w *Writer) Cursor() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ring.Cursor()
}

// Close flushes and closes the file. Close is idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.close()
}
