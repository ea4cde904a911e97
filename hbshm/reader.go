package hbshm

import (
	"fmt"
	"os"

	"repro/heartbeat"
	"repro/internal/hbring"
)

// Reader observes a shared-memory heartbeat region written by another
// process. Readers never coordinate with the writer or with each other —
// every method is a matter of copies out of the shared mapping, validated
// by the ring's protocol — so any number of observers cost the producer
// nothing. Methods are safe for concurrent use.
//
//hbvet:api -- paper §3: an external observer's view of the shared-memory heartbeat
type Reader struct {
	f    *os.File
	mem  []byte
	ring *hbring.Reader
}

// Open maps the shared-memory region at path read-only.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("hbshm: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("hbshm: stat: %w", err)
	}
	if st.Size() < hbring.HeaderSize {
		f.Close()
		return nil, fmt.Errorf("hbshm: region too small (%d bytes)", st.Size())
	}
	mem, err := mmapFile(f, int(st.Size()), false)
	if err != nil {
		f.Close()
		return nil, err
	}
	ring, err := hbring.Open("hbshm", region(mem), int64(len(mem)))
	if err != nil {
		munmap(mem)
		f.Close()
		return nil, err
	}
	return &Reader{f: f, mem: mem, ring: ring}, nil
}

// Window returns the advertised averaging window.
func (r *Reader) Window() int { return int(r.ring.Window) }

// Capacity returns the number of retained records.
func (r *Reader) Capacity() int { return int(r.ring.Capacity) }

// Head returns the highest published sequence number: an atomic load of
// the region's cursor word.
func (r *Reader) Head() uint64 {
	head, _ := r.ring.Cursor() // a mapping read cannot fail
	return head
}

// Target returns the advertised target heart-rate range; ok is false when
// no target was ever published. Torn reads (writer mid-update) retry a
// bounded number of times: a writer that died between the two version
// bumps leaves the word odd for good, and that must surface as an error,
// not a reader spinning forever.
func (r *Reader) Target() (min, max float64, ok bool, err error) { return r.ring.Target() }

// ReadSinceInto returns up to max records with sequence numbers greater
// than since, oldest to newest, plus the cursor to resume from — the same
// incremental contract as the file ring and the in-process history.
// Records lapped, in flight, or never written (a publisher-side gap)
// before this reader got to them are passed over; the caller detects that
// loss as cursor-since exceeding len(records). A cursor behind since (a
// recreated region) is returned as is. Once the writer has closed the
// region and everything published has been delivered, ReadSinceInto
// returns io.EOF. The records are appended into buf when its capacity
// suffices (nil buf allocates) — the reuse hook that keeps a polling
// observer allocation-free.
func (r *Reader) ReadSinceInto(since uint64, max int, buf []heartbeat.Record) ([]heartbeat.Record, uint64, error) {
	return r.ring.ReadSinceInto(since, max, buf)
}

// Rate returns the average heart rate over the most recent window records
// (window <= 0 selects the advertised default), with the file ring's
// semantics: beats per second between the first and last valid record of
// the window. ok is false with fewer than two valid records.
func (r *Reader) Rate(window int) (perSec float64, ok bool, err error) { return r.ring.Rate(window) }

// Close unmaps the region. Close is idempotent.
func (r *Reader) Close() error {
	if r.mem == nil {
		return r.f.Close()
	}
	err := munmap(r.mem)
	r.mem = nil
	if cerr := r.f.Close(); err == nil {
		err = cerr
	}
	return err
}
