package hbshm

import (
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/heartbeat"
)

// Reader observes a shared-memory heartbeat region written by another
// process. Readers never coordinate with the writer or with each other —
// every method is a matter of loads from the shared mapping, validated by
// the slot seqlocks — so any number of observers cost the producer
// nothing. Methods are safe for concurrent use.
//
//hbvet:api -- paper §3: an external observer's view of the shared-memory heartbeat
type Reader struct {
	f        *os.File
	mem      []byte
	capacity uint64
	mask     uint64 // capacity - 1, for slot addressing
	window   uint64
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
	if st.Size() < HeaderSize {
		f.Close()
		return nil, fmt.Errorf("hbshm: region too small (%d bytes)", st.Size())
	}
	mem, err := mmapFile(f, int(st.Size()), false)
	if err != nil {
		f.Close()
		return nil, err
	}
	capacity, window, err := checkHeader(mem)
	if err != nil {
		munmap(mem)
		f.Close()
		return nil, err
	}
	return &Reader{f: f, mem: mem, capacity: capacity, mask: capacity - 1, window: window}, nil
}

// Window returns the advertised averaging window.
func (r *Reader) Window() int { return int(r.window) }

// Capacity returns the number of retained records.
func (r *Reader) Capacity() int { return int(r.capacity) }

// Head returns the highest published sequence number: one atomic load,
// which is the entire cost of an idle observation tick.
func (r *Reader) Head() uint64 { return wordU64(r.mem, offHead).Load() }

// Target returns the advertised target heart-rate range; ok is false when
// no target was ever published. Torn reads (writer mid-update) retry.
func (r *Reader) Target() (min, max float64, ok bool, err error) {
	ver := wordU64(r.mem, offTargetVer)
	for {
		v1 := ver.Load()
		if v1 == 0 {
			return 0, 0, false, nil
		}
		if v1%2 == 1 {
			continue // mid-update; retry
		}
		min = math.Float64frombits(wordU64(r.mem, offTargetMin).Load())
		max = math.Float64frombits(wordU64(r.mem, offTargetMax).Load())
		if ver.Load() == v1 {
			return min, max, true, nil
		}
	}
}

// readSlot loads the slot expected to hold seq, seqlock-validated: ok is
// false when the slot is mid-write or holds a different sequence number
// (overwritten, or not yet written).
func (r *Reader) readSlot(seq uint64) (heartbeat.Record, bool) {
	off := slotOff(seq, r.mask)
	sw := wordU64(r.mem, off+recOffSeq)
	for {
		s1 := sw.Load()
		if s1 != seq {
			return heartbeat.Record{}, false
		}
		rec := heartbeat.Record{
			Seq:      seq,
			Time:     unixTime(wordI64(r.mem, off+recOffTime).Load()),
			Tag:      wordI64(r.mem, off+recOffTag).Load(),
			Producer: wordI32(r.mem, off+recOffProducer).Load(),
		}
		if sw.Load() == s1 {
			return rec, true
		}
	}
}

// ReadSinceInto returns up to max records with sequence numbers greater
// than since, oldest to newest, plus the cursor to resume from — the same
// incremental contract as the file ring and the in-process history.
// Records lapped (or otherwise absent) before this reader got to them are
// passed over; the caller detects that loss as cursor-since exceeding
// len(records). Once the writer has closed the region and everything
// published has been delivered, ReadSinceInto returns io.EOF. The records
// are appended into buf when its capacity suffices (nil buf allocates) —
// the reuse hook that keeps a polling observer allocation-free.
func (r *Reader) ReadSinceInto(since uint64, max int, buf []heartbeat.Record) ([]heartbeat.Record, uint64, error) {
	cur := r.Head()
	if cur < since {
		// The caller's cursor is ahead of everything published: it came
		// from a previous life of this region. Report the real head (never
		// EOF) so the caller can detect the regression and resynchronize.
		return nil, cur, nil
	}
	if cur == since {
		if wordU64(r.mem, offClosed).Load() != 0 {
			// The closed flag is published after the final head: re-read
			// head so a close racing this read can never hide the last
			// records behind the EOF.
			if h := r.Head(); h > since {
				cur = h
			} else {
				return nil, cur, io.EOF
			}
		} else {
			return nil, cur, nil
		}
	}
	from := since + 1
	if cur-since > r.capacity {
		from = cur - r.capacity + 1 // lapped: the older records are gone
	}
	if max > 0 && cur-from+1 > uint64(max) {
		cur = from + uint64(max) - 1 // page large backlogs
	}
	out := buf[:0]
	if uint64(cap(out)) < cur-from+1 {
		out = make([]heartbeat.Record, 0, cur-from+1)
	}
	// The scan is readSlot unrolled: one bounds check per slot instead of
	// four, no call overhead — this loop is the transport's entire
	// per-record cost, so it is kept as close to five loads as Go allows.
	//
	// Slots are published before the head advances, so a slot that fails
	// to validate under a head that covers it is permanently gone:
	// mid-overwrite by a lapping writer, lapped before we got here, or
	// never written because the publisher itself skipped the sequence (an
	// upstream loss an exporting bridge passed through). Either way the
	// cursor arithmetic reports it as missed; waiting for it would
	// livelock on publisher-side gaps.
	for seq := from; seq <= cur; seq++ {
		p := unsafe.Pointer(&r.mem[slotOff(seq, r.mask)])
		sw := (*atomic.Uint64)(p)
		for {
			s1 := sw.Load()
			if s1 != seq {
				break
			}
			rec := heartbeat.Record{
				Seq:      seq,
				Time:     unixTime((*atomic.Int64)(unsafe.Add(p, recOffTime)).Load()),
				Tag:      (*atomic.Int64)(unsafe.Add(p, recOffTag)).Load(),
				Producer: (*atomic.Int32)(unsafe.Add(p, recOffProducer)).Load(),
			}
			if sw.Load() == s1 {
				out = append(out, rec)
				break
			}
		}
	}
	return out, cur, nil
}

// Rate returns the average heart rate over the most recent window records
// (window <= 0 selects the advertised default), matching the file ring's
// reporting semantics: beats per second between the first and last record
// of the window. ok is false with fewer than two valid records.
func (r *Reader) Rate(window int) (perSec float64, ok bool, err error) {
	if window <= 0 {
		window = int(r.window)
	}
	head := r.Head()
	if head == 0 {
		return 0, false, nil
	}
	from := uint64(1)
	if head > uint64(window) {
		from = head - uint64(window) + 1
	}
	var first, last heartbeat.Record
	var n int
	for seq := from; seq <= head; seq++ {
		rec, okr := r.readSlot(seq)
		if !okr {
			continue
		}
		if n == 0 {
			first = rec
		}
		last = rec
		n++
	}
	if n < 2 {
		return 0, false, nil
	}
	dt := last.Time.Sub(first.Time).Seconds()
	if dt <= 0 {
		return 0, false, nil
	}
	return float64(n-1) / dt, true, nil
}

func unixTime(nanos int64) time.Time { return time.Unix(0, nanos) }

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
