package hbfile_test

import (
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/hbfile"
	"repro/hbshm"
	"repro/heartbeat"
	"repro/internal/simcheck"
)

// A writer flushing 1024-record segments through a ring two segments long
// laps any reader constantly, so most reads overlap a segment in flight.
// Every field of a record is a function of its sequence number: the reader
// must never deliver a record that disagrees with its own (a slot read
// while a later lap was being stored), must deliver in order and at most
// once, and must account for everything else as missed. It runs over both
// access methods to the one ring layout: pwrite and pread here, copies
// through a shared mapping in hbshm, where the reader's post-check is the
// only guard a slot has. The late variants hold each batch's middle record
// back and write it alone after the rest, behind the published cursor, the
// way concurrent direct beats reach a sink out of order.
func TestSegmentWritesNeverTearUnderLappedReader(t *testing.T) {
	type writer interface {
		WriteRecords([]heartbeat.Record) error
		Close() error
	}
	type reader interface {
		ReadSinceInto(since uint64, max int, buf []heartbeat.Record) ([]heartbeat.Record, uint64, error)
		Close() error
	}
	for _, m := range []struct {
		name   string
		create func(path string, window, capacity int) (writer, error)
		open   func(path string) (reader, error)
	}{
		{"file",
			func(p string, window, capacity int) (writer, error) { return hbfile.Create(p, window, capacity) },
			func(p string) (reader, error) { return hbfile.Open(p) }},
		{"mapping",
			func(p string, window, capacity int) (writer, error) { return hbshm.Create(p, window, capacity) },
			func(p string) (reader, error) { return hbshm.Open(p) }},
	} {
		for _, late := range []bool{false, true} {
			name := m.name
			if late {
				name += "-late"
			}
			t.Run(name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "stress.hb")
				w, err := m.create(path, 10, 2048)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				r, err := m.open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				lappedReader(t, w.WriteRecords, r.ReadSinceInto, late)
			})
		}
	}
}

func lappedReader(t *testing.T, write func([]heartbeat.Record) error,
	read func(since uint64, max int, buf []heartbeat.Record) ([]heartbeat.Record, uint64, error), late bool) {
	const batch, batches = 1024, 1500
	tagOf := func(seq uint64) int64 { return int64(seq*0x9E3779B97F4A7C15) ^ int64(seq>>3) }

	written := make(chan error, 1)
	go func() {
		recs := make([]heartbeat.Record, batch)
		var seq uint64
		for b := 0; b < batches; b++ {
			for i := range recs {
				seq++
				recs[i] = heartbeat.Record{Seq: seq, Time: time.Unix(0, int64(seq)), Tag: tagOf(seq), Producer: int32(seq)}
			}
			calls := [][]heartbeat.Record{recs}
			if late {
				mid := batch / 2
				calls = [][]heartbeat.Record{append(recs[:mid:mid], recs[mid+1:]...), recs[mid : mid+1]}
			}
			for _, call := range calls {
				if err := write(call); err != nil {
					written <- err
					return
				}
			}
		}
		written <- nil
	}()

	var since, delivered, missed uint64
	var buf []heartbeat.Record
	for finished := false; ; {
		if !finished {
			select {
			case err := <-written:
				if err != nil {
					t.Fatal(err)
				}
				finished = true // the read below sees the final cursor
			default:
			}
		}
		recs, cur, err := read(since, 0, buf)
		if err != nil {
			t.Fatal(err)
		}
		last := since
		for _, rec := range recs {
			if rec.Seq <= last || rec.Seq > cur {
				t.Fatalf("seq %d delivered after %d under cursor %d", rec.Seq, last, cur)
			}
			if rec.Tag != tagOf(rec.Seq) || rec.Time.UnixNano() != int64(rec.Seq) || rec.Producer != int32(rec.Seq) {
				t.Fatalf("torn record delivered: %+v (want tag %d)", rec, tagOf(rec.Seq))
			}
			last = rec.Seq
		}
		delivered += uint64(len(recs))
		missed += cur - since - uint64(len(recs))
		since = cur
		if recs != nil {
			buf = recs[:0]
		}
		if finished {
			break
		}
		runtime.Gosched()
	}
	if since != batch*batches {
		t.Fatalf("final cursor = %d, want %d", since, batch*batches)
	}
	simcheck.RequireConserved(t, "lapped reader", delivered, missed, since)
	if delivered == 0 || missed == 0 {
		t.Fatalf("delivered %d, missed %d: the reader was meant to be lapped, not starved or keeping up", delivered, missed)
	}
}
