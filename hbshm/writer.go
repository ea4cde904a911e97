package hbshm

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"repro/heartbeat"
	"repro/internal/hbring"
)

// Writer publishes heartbeats into a shared-memory ring for external
// observers. It implements heartbeat.Sink, heartbeat.BatchSink, and
// heartbeat.TargetSink, so it is normally attached with
// heartbeat.WithSink — exactly like the file ring's writer, with each
// run of records costing one copy into mapped memory instead of a
// write(2). A region has exactly one writing process; within that process
// Writer is safe for concurrent use.
type Writer struct {
	mu     sync.Mutex
	f      *os.File
	mem    []byte
	ring   *hbring.Writer
	closed bool
}

var _ heartbeat.TargetSink = (*Writer)(nil)
var _ heartbeat.BatchSink = (*Writer)(nil)

var errClosed = errors.New("hbshm: writer closed")

// Create creates (or truncates) a shared-memory heartbeat region at path
// retaining capacity records and advertising the application's default
// window. Put path on a memory filesystem (/dev/shm on Linux) to keep the
// ring purely in memory; any mmap-able filesystem works.
func Create(path string, window, capacity int) (*Writer, error) {
	size, err := hbring.Size("hbshm", window, capacity)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("hbshm: create: %w", err)
	}
	// Size the file before mapping so observers never fault on a short
	// region, then write the header through the mapping itself.
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("hbshm: truncate: %w", err)
	}
	mem, err := mmapFile(f, int(size), true)
	if err != nil {
		f.Close()
		return nil, err
	}
	ring, err := hbring.Create("hbshm", region(mem), hbring.Magic, window, capacity)
	if err != nil {
		munmap(mem)
		f.Close()
		return nil, err
	}
	return &Writer{f: f, mem: mem, ring: ring}, nil
}

// WriteRecord publishes one heartbeat record (heartbeat.Sink). Records may
// arrive out of sequence order when multiple goroutines beat concurrently;
// the head only ever moves forward.
func (w *Writer) WriteRecord(r heartbeat.Record) error {
	one := [1]heartbeat.Record{r}
	return w.WriteRecords(one[:])
}

// WriteRecords publishes a batch of records (heartbeat.BatchSink): the
// lock is taken and the head advanced once for the whole batch, and each
// run of consecutive sequence numbers is one copy.
func (w *Writer) WriteRecords(recs []heartbeat.Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errClosed
	}
	return w.ring.WriteRecords(recs)
}

// WriteTarget publishes the target heart-rate range (heartbeat.TargetSink).
// Readers validate against the version word: odd means mid-update.
func (w *Writer) WriteTarget(min, max float64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errClosed
	}
	return w.ring.WriteTarget(min, max)
}

// Cursor returns the highest sequence number published so far.
func (w *Writer) Cursor() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ring.Cursor()
}

// Close marks the region ended — observers drain what is published and
// then see stream end — and unmaps it. The file is left in place for
// late observers (remove it separately when the history should vanish).
// Close is idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	_ = w.ring.Close() // a mapping write cannot fail
	err := munmap(w.mem)
	w.mem = nil
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
