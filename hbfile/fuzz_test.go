package hbfile_test

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/hbfile"
	"repro/heartbeat"
)

// Opening arbitrary bytes as a heartbeat ring or log must fail cleanly —
// never panic, never return a reader over garbage silently. (Observers
// attach to files owned by other processes, so robust rejection matters.)
func FuzzOpenArbitraryBytes(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("APPHBv1\x00"))
	f.Add([]byte("APPHBL1\x00"))
	f.Add(make([]byte, 128))
	// A valid-looking header with absurd fields.
	valid := make([]byte, 256)
	copy(valid, "APPHBv1\x00")
	valid[8] = 1     // version
	valid[12] = 32   // record size
	valid[16] = 0xff // capacity
	f.Add(valid)
	// A header claiming 2^28 slots over a 256-byte file (Open must refuse
	// it before anything is sized from it), and a well-formed 4-slot ring
	// whose reserved head is far ahead of its cursor.
	f.Add(hostileCapacityHeader(1 << 28))
	reserved := hostileCapacityHeader(4)
	binary.LittleEndian.PutUint64(reserved[56:], 3)    // cursor
	binary.LittleEndian.PutUint64(reserved[64:], 1000) // reserved head
	binary.LittleEndian.PutUint64(reserved[128:], 1)   // slot 0 holds seq 1
	f.Add(reserved)
	f.Add(hostileCountLog(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.hb")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		if r, err := hbfile.Open(path); err == nil {
			// If the header happened to be valid, reads must still be
			// well-behaved on truncated/garbage bodies.
			_, _ = r.Cursor()
			_, _ = r.Last(16)
			// Sized by the header's capacity, which Open bounded by the
			// file; whatever comes back must have been validated.
			if recs, cur, err := r.ReadSince(0, 0); err == nil {
				for _, rec := range recs {
					if rec.Seq == 0 || rec.Seq > cur {
						t.Fatalf("ReadSince delivered seq %d under cursor %d", rec.Seq, cur)
					}
				}
			}
			_, _, _, _ = r.Target()
			r.Close()
		}
		if lr, err := hbfile.OpenLog(path); err == nil {
			_, _ = lr.Count()
			_, _ = lr.Last(16)
			// Sized by the count word, which every read bounds by the file.
			if recs, cur, err := lr.ReadSinceInto(0, 0, nil); err == nil && uint64(len(recs)) != cur {
				t.Fatalf("ReadSince delivered %d records under cursor %d", len(recs), cur)
			}
			_, _, _, _ = lr.Target()
			lr.Close()
		}
	})
}

// Round-trip fuzz: any record written must decode back identically through
// the ring file — written as part of a batch that wraps the ring, so the
// fuzzed record travels the segment encoder at an arbitrary slot.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(1), int64(0), int64(0), int32(0))
	f.Add(uint64(1<<40), int64(-5), int64(1<<62), int32(-1))
	f.Add(uint64(8), int64(7), int64(-1), int32(1<<31-1)) // batch ends on the ring's last slot
	f.Fuzz(func(t *testing.T, seq uint64, nanos, tag int64, producer int32) {
		const capacity = 8
		if seq == 0 || seq > 1<<63 {
			t.Skip() // 0 is invalid; near 2^64 the lap arithmetic (seq+capacity) wraps
		}
		path := filepath.Join(t.TempDir(), "rt.hb")
		w, err := hbfile.Create(path, 5, capacity)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		// Five consecutive records ending at seq: wherever seq falls in
		// the ring, five of eight slots wrap for most residues.
		rec := recordFrom(seq, nanos, tag, producer)
		var batch []heartbeat.Record
		for s := seq - min(seq-1, 4); s < seq; s++ {
			batch = append(batch, recordFrom(s, int64(s), int64(s), 0))
		}
		batch = append(batch, rec)
		if err := w.WriteRecords(batch); err != nil {
			t.Fatal(err)
		}
		r, err := hbfile.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got, err := r.Last(capacity)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(batch) {
			t.Fatalf("read back %d records, wrote %d", len(got), len(batch))
		}
		for i, want := range batch {
			if got[i].Seq != want.Seq || got[i].Tag != want.Tag ||
				got[i].Producer != want.Producer || got[i].Time.UnixNano() != want.Time.UnixNano() {
				t.Fatalf("round trip mismatch at %d: wrote %+v, read %+v", i, want, got[i])
			}
		}
	})
}

func recordFrom(seq uint64, nanos, tag int64, producer int32) heartbeat.Record {
	return heartbeat.Record{Seq: seq, Time: time.Unix(0, nanos), Tag: tag, Producer: producer}
}
