package observer

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/hbfile"
	"repro/heartbeat"
)

// drainFollow collects batches until want records have arrived or the
// deadline passes.
func drainFollow(t *testing.T, s Stream, want int) []heartbeat.Record {
	t.Helper()
	return drainFollowInto(t, s, want, NewWindow(0))
}

// drainFollowInto is drainFollow absorbing each batch into w as a consumer
// would.
func drainFollowInto(t *testing.T, s Stream, want int, w *Window) []heartbeat.Record {
	t.Helper()
	var out []heartbeat.Record
	deadline := time.Now().Add(10 * time.Second)
	for len(out) < want {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		b, err := s.Next(ctx)
		cancel()
		if err != nil {
			t.Fatalf("Next after %d records: %v", len(out), err)
		}
		out = append(out, b.Records...)
		w.Absorb(b)
	}
	return out
}

func writeRing(t *testing.T, path string, first, n int) {
	t.Helper()
	w, err := hbfile.Create(path, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < n; i++ {
		rec := heartbeat.Record{Seq: uint64(first + i), Time: time.Now()}
		if err := w.WriteRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// The ROADMAP gap this covers: a live tail held the inode it opened, so a
// producer that restarted — deleting and recreating its file — read as a
// flatline forever. FollowFile must notice the recreation on an idle tick
// and resume with the new life's records.
func TestFollowFileSurvivesDeleteRecreate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "app.hb")
	writeRing(t, path, 1, 5)

	s, err := FollowFile(path, time.Millisecond, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.(io.Closer).Close()
	win := NewWindow(0)
	first := drainFollowInto(t, s, 5, win)
	if first[len(first)-1].Seq != 5 {
		t.Fatalf("first life tail wrong: %+v", first)
	}

	// The producer restarts: the file is DELETED and recreated, so the new
	// file is a different inode and the new life's seqs restart at 1.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	writeRing(t, path, 1, 3)

	second := drainFollowInto(t, s, 3, win)
	for i, r := range second {
		if r.Seq != uint64(i+1) {
			t.Fatalf("new life record %d has seq %d, want %d", i, r.Seq, i+1)
		}
	}
	// The consumer's window follows the new life instead of reporting the
	// old one's count until the successor overtakes it.
	if st := (&Classifier{}).ClassifyWindow(win); st.Count != 3 || len(win.Records()) != 3 {
		t.Fatalf("after the restart: Status.Count = %d over %d records, want the new life's 3", st.Count, len(win.Records()))
	}
}

// Recreation in the other variant (ring -> append-only log) must also be
// picked up: the variant is detected per reopen.
func TestFollowFileSurvivesVariantChange(t *testing.T) {
	path := filepath.Join(t.TempDir(), "app.hb")
	writeRing(t, path, 1, 4)

	s, err := FollowFile(path, time.Millisecond, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.(io.Closer).Close()
	drainFollow(t, s, 4)

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	lw, err := hbfile.CreateLog(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	for i := 1; i <= 2; i++ {
		if err := lw.WriteRecord(heartbeat.Record{Seq: uint64(i), Time: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	recs := drainFollow(t, s, 2)
	if recs[0].Seq != 1 || recs[1].Seq != 2 {
		t.Fatalf("log life records wrong: %+v", recs)
	}
}

// While the path is deleted but not yet recreated, the tail keeps serving
// the old (open) inode rather than erroring — and still catches up when
// the successor appears.
func TestFollowFileMissingGap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "app.hb")
	writeRing(t, path, 1, 2)

	s, err := FollowFile(path, time.Millisecond, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.(io.Closer).Close()
	drainFollow(t, s, 2)

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	// Idle while the path is missing: Next must report a clean timeout,
	// not a failure.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if _, err := s.Next(ctx); err != context.DeadlineExceeded {
		cancel()
		t.Fatalf("Next during the gap: %v, want deadline exceeded", err)
	}
	cancel()

	writeRing(t, path, 1, 6)
	if recs := drainFollow(t, s, 6); recs[5].Seq != 6 {
		t.Fatalf("catch-up after gap wrong: %+v", recs)
	}
}

// The file streams hand their decode buffer out with each batch and take it
// back through Recycle (the hook hbnet.Relay probes every upstream for), so
// a tail that is recycled decodes into one backing array for its whole life
// — across a FollowFile reopen too — while an unrecycled batch stays the
// consumer's to keep.
func TestFileStreamsRecycleDecodeBuffer(t *testing.T) {
	type recycler interface{ Recycle(Batch) }
	dir := t.TempDir()
	ringPath, logPath, followPath := filepath.Join(dir, "r.hb"), filepath.Join(dir, "l.hblog"), filepath.Join(dir, "f.hb")

	ring, err := hbfile.Create(ringPath, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer ring.Close()
	lw, err := hbfile.CreateLog(logPath, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer lw.Close()
	followed, err := hbfile.Create(followPath, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { followed.Close() }()

	rr, err := hbfile.Open(ringPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Close()
	lr, err := hbfile.OpenLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Close()
	fs, err := FollowFile(followPath, time.Millisecond, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.(io.Closer).Close()

	var seq uint64
	write := func(w heartbeat.BatchSink, n int) {
		t.Helper()
		recs := make([]heartbeat.Record, n)
		for i := range recs {
			seq++
			recs[i] = heartbeat.Record{Seq: seq, Time: time.Unix(0, int64(seq))}
		}
		if err := w.WriteRecords(recs); err != nil {
			t.Fatal(err)
		}
	}
	next := func(s Stream, want int) Batch {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		b, err := s.Next(ctx)
		if err != nil || len(b.Records) != want {
			t.Fatalf("Next = %d records, err %v; want %d", len(b.Records), err, want)
		}
		return b
	}

	for name, tc := range map[string]struct {
		s Stream
		w func() heartbeat.BatchSink
	}{
		"ring":   {ReaderStream(rr, time.Millisecond, 0, nil), func() heartbeat.BatchSink { return ring }},
		"log":    {ReaderStream(lr, time.Millisecond, 0, nil), func() heartbeat.BatchSink { return lw }},
		"follow": {fs, func() heartbeat.BatchSink { return followed }},
	} {
		rec, ok := tc.s.(recycler)
		if !ok {
			t.Fatalf("%s stream has no Recycle method", name)
		}
		seq = 0
		write(tc.w(), 20)
		b1 := next(tc.s, 20)
		kept := append([]heartbeat.Record(nil), b1.Records...)
		rec.Recycle(b1)
		write(tc.w(), 10)
		b2 := next(tc.s, 10)
		if &b2.Records[0] != &b1.Records[0] {
			t.Fatalf("%s: recycled batch was not decoded into", name)
		}
		if b2.Records[0].Seq != 21 || kept[0].Seq != 1 {
			t.Fatalf("%s: second batch starts at %d", name, b2.Records[0].Seq)
		}
		// Not recycled: the next delivery must leave b2 alone.
		write(tc.w(), 5)
		b3 := next(tc.s, 5)
		if &b3.Records[0] == &b2.Records[0] || b2.Records[0].Seq != 21 || b3.Records[0].Seq != 31 {
			t.Fatalf("%s: unrecycled batch was overwritten", name)
		}
		if name != "follow" {
			continue
		}
		// The producer restarts; the buffer recycled before the reopen
		// serves the new life's reader.
		rec.Recycle(b3)
		followed.Close()
		if err := os.Remove(followPath); err != nil {
			t.Fatal(err)
		}
		if followed, err = hbfile.Create(followPath, 8, 64); err != nil {
			t.Fatal(err)
		}
		seq = 0
		write(followed, 4)
		b4 := next(tc.s, 4)
		if &b4.Records[0] != &b3.Records[0] || b4.Records[0].Seq != 1 {
			t.Fatalf("follow: new life's first batch %+v did not reuse the recycled buffer", b4.Records[0])
		}
	}
}
