package hbring_test

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/hbfile"
	"repro/hbshm"
	"repro/heartbeat"
	"repro/internal/hbring"
)

// writer and reader are what both access methods' writers and readers
// offer.
type writer interface {
	WriteRecords([]heartbeat.Record) error
	WriteTarget(min, max float64) error
	Close() error
}

type reader interface {
	Window() int
	Capacity() int
	Target() (min, max float64, ok bool, err error)
	ReadSinceInto(since uint64, max int, buf []heartbeat.Record) ([]heartbeat.Record, uint64, error)
	Close() error
}

// method is one access method: pwrite/pread on the file (hbfile) or
// copies through a mapping of it (hbshm).
type method struct {
	name   string
	create func(path string, window, capacity int) (writer, error)
	open   func(path string) (reader, error)
	ends   bool // Close marks the ring ended
}

var methods = []method{
	{"file",
		func(p string, window, capacity int) (writer, error) { return hbfile.Create(p, window, capacity) },
		func(p string) (reader, error) { return hbfile.Open(p) }, false},
	{"mapping",
		func(p string, window, capacity int) (writer, error) { return hbshm.Create(p, window, capacity) },
		func(p string) (reader, error) { return hbshm.Open(p) }, true},
}

// record is seq's record: every field is a function of seq, so a torn or
// misplaced record shows.
func record(seq uint64) heartbeat.Record {
	return heartbeat.Record{Seq: seq, Time: time.Unix(0, int64(seq)*1e6), Tag: -int64(seq), Producer: int32(seq % 5)}
}

func records(from, to uint64) []heartbeat.Record {
	var recs []heartbeat.Record
	for seq := from; seq <= to; seq++ {
		recs = append(recs, record(seq))
	}
	return recs
}

// check fails unless recs are exactly the records numbered from..to.
func check(t *testing.T, recs []heartbeat.Record, from, to uint64) {
	t.Helper()
	if uint64(len(recs)) != to-from+1 {
		t.Fatalf("%d records, want %d..%d", len(recs), from, to)
	}
	for i, rec := range recs {
		if want := record(from + uint64(i)); rec.Seq != want.Seq || !rec.Time.Equal(want.Time) ||
			rec.Tag != want.Tag || rec.Producer != want.Producer {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want)
		}
	}
}

// A ring written through either access method reads correctly through
// either: records, window, target, lapped accounting, and the end of a
// ring only the mapping writer's Close marks.
func TestEitherMethodReadsEither(t *testing.T) {
	const window, capacity = 7, 16
	for _, wm := range methods {
		for _, rm := range methods {
			t.Run(wm.name+"-to-"+rm.name, func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "ring")
				w, err := wm.create(path, window, capacity)
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				if err := w.WriteTarget(2.5, 9); err != nil {
					t.Fatal(err)
				}
				if err := w.WriteRecords(records(1, 10)); err != nil {
					t.Fatal(err)
				}
				r, err := rm.open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				if r.Window() != window || r.Capacity() != capacity {
					t.Fatalf("window %d, capacity %d; want %d, %d", r.Window(), r.Capacity(), window, capacity)
				}
				if min, max, ok, err := r.Target(); err != nil || !ok || min != 2.5 || max != 9 {
					t.Fatalf("target [%v, %v] ok %v err %v, want [2.5, 9]", min, max, ok, err)
				}
				recs, cur, err := r.ReadSinceInto(0, 0, nil)
				if err != nil || cur != 10 {
					t.Fatalf("cursor %d, err %v", cur, err)
				}
				check(t, recs, 1, 10)

				// Lapped: of the 16 slots, the one cursor+1 will overwrite is
				// distrusted; everything not delivered is missed.
				if err := w.WriteRecords(records(11, 40)); err != nil {
					t.Fatal(err)
				}
				recs, cur, err = r.ReadSinceInto(10, 0, nil)
				if err != nil || cur != 40 {
					t.Fatalf("cursor %d, err %v", cur, err)
				}
				check(t, recs, 26, 40)
				if delivered, missed := 10+uint64(len(recs)), cur-10-uint64(len(recs)); delivered+missed != 40 || missed != 15 {
					t.Fatalf("delivered %d + missed %d, want 25 + 15 = 40", delivered, missed)
				}

				if err := w.WriteRecords(records(41, 41)); err != nil {
					t.Fatal(err)
				}
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
				// Records published before Close are delivered before io.EOF.
				recs, cur, err = r.ReadSinceInto(40, 0, nil)
				if err != nil || cur != 41 {
					t.Fatalf("after Close: cursor %d, err %v", cur, err)
				}
				check(t, recs, 41, 41)
				_, cur, err = r.ReadSinceInto(41, 0, nil)
				if wantEOF := wm.ends; errors.Is(err, io.EOF) != wantEOF || cur != 41 || (!wantEOF && err != nil) {
					t.Fatalf("drained ring after %s writer's Close: cursor %d, err %v; io.EOF wanted: %v", wm.name, cur, err, wantEOF)
				}
			})
		}
	}
}

// A record arriving a full lap behind the newest published one would land
// in the slot of a newer, live record: 3..16 in 8 slots, then 2 late, whose
// slot holds 10. The writer drops it, and readers count it as missed.
func TestLateRecordAFullLapBehindKeepsLiveRecord(t *testing.T) {
	for _, m := range methods {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ring")
			w, err := m.create(path, 10, 8)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if err := w.WriteRecords(records(3, 16)); err != nil {
				t.Fatal(err)
			}
			if err := w.WriteRecords(records(2, 2)); err != nil {
				t.Fatal(err)
			}
			r, err := m.open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			recs, cur, err := r.ReadSinceInto(8, 0, nil)
			if err != nil || cur != 16 {
				t.Fatalf("cursor %d, err %v", cur, err)
			}
			// 9's slot is the one cursor+1 will overwrite, so 10 is the
			// oldest record a reader may deliver.
			check(t, recs, 10, 16)
		})
	}
}

// The header's capacity word is 32 bits: a larger ring is refused before
// any file is created, rather than stored truncated over a file sized from
// the full value.
func TestCreateRejectsCapacityBeyondHeader(t *testing.T) {
	big := uint64(math.MaxUint32) + 1
	for _, m := range methods {
		path := filepath.Join(t.TempDir(), "ring")
		if w, err := m.create(path, 10, int(big)); err == nil {
			w.Close()
			t.Fatalf("%s: capacity %d accepted", m.name, big)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%s: refused Create left a file behind (%v)", m.name, err)
		}
	}
}

// medium is what the core reads and writes a ring through.
type medium interface {
	io.ReaderAt
	io.WriterAt
}

// mem is a ring held in memory, read and written with copy.
type mem []byte

func (m mem) ReadAt(p []byte, off int64) (int, error)  { return copy(p, m[off:]), nil }
func (m mem) WriteAt(p []byte, off int64) (int, error) { return copy(m[off:], p), nil }

// pausingWriterAt lands a write that covers the word at pause only up to
// that word, runs mid, and then lands the rest: a reader copying the slot
// during mid catches it half written, in address order.
type pausingWriterAt struct {
	io.WriterAt
	pause int64
	mid   func()
}

func (pw *pausingWriterAt) WriteAt(p []byte, off int64) (int, error) {
	cut := pw.pause - off
	if cut <= 0 || cut >= int64(len(p)) {
		return pw.WriterAt.WriteAt(p, off)
	}
	if _, err := pw.WriterAt.WriteAt(p[:cut], off); err != nil {
		return 0, err
	}
	pw.mid()
	if _, err := pw.WriterAt.WriteAt(p[cut:], pw.pause); err != nil {
		return 0, err
	}
	return len(p), nil
}

// A late record within the last lap is written in place, and a reader that
// wants it may copy its slot while it is being written: 1..8 and 10..12 in
// 8 slots, then 9 late, over record 1. The writer stores the body before the
// sequence word, so until the record is whole its slot still carries the
// old sequence number and the reader passes it over as missed.
func TestLateRecordIsNeverReadHalfWritten(t *testing.T) {
	const capacity = 8
	size, err := hbring.Size("test", 10, capacity)
	if err != nil {
		t.Fatal(err)
	}
	for _, medium := range []struct {
		name string
		open func(t *testing.T) medium
	}{
		{"file", func(t *testing.T) medium {
			f, err := os.Create(filepath.Join(t.TempDir(), "ring"))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			if err := f.Truncate(size); err != nil {
				t.Fatal(err)
			}
			return f
		}},
		{"memory", func(*testing.T) medium { return make(mem, size) }},
	} {
		t.Run(medium.name, func(t *testing.T) {
			ring := medium.open(t)
			w, err := hbring.Create("test", ring, hbring.Magic, 10, capacity)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.WriteRecords(records(1, 8)); err != nil {
				t.Fatal(err)
			}
			if err := w.WriteRecords(records(10, 12)); err != nil {
				t.Fatal(err)
			}
			r, err := hbring.Open("test", ring, size)
			if err != nil {
				t.Fatal(err)
			}
			const tagOf9 = hbring.HeaderSize + 16 // 9's slot is the first
			paused := 0
			w.Out = &pausingWriterAt{ring, tagOf9, func() {
				paused++
				recs, cur, err := r.ReadSinceInto(8, 0, nil)
				if err != nil || cur != 12 {
					t.Fatalf("mid-write read: cursor %d, err %v", cur, err)
				}
				check(t, recs, 10, 12)
			}}
			if err := w.WriteRecords(records(9, 9)); err != nil {
				t.Fatal(err)
			}
			if paused != 1 {
				t.Fatalf("the late record's tag word was written %d times mid-write, want 1", paused)
			}
			recs, _, err := r.ReadSinceInto(8, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(t, recs, 9, 12)
		})
	}
}
