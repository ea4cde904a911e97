package hbnet

import (
	"context"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"repro/heartbeat"
	"repro/observer"
)

// hasPointers reports whether values of type t hold any pointer the
// garbage collector would have to scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.String, reflect.Chan, reflect.Func, reflect.Interface:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// The replay ring keeps 32 pointer-free bytes per record, and encoding
// from them produces the same frames as encoding from heartbeat.Records
// did: the golden frames below were encoded by the ring when it stored
// heartbeat.Records.
func TestReplayRingEntryPointerFree(t *testing.T) {
	if got := unsafe.Sizeof(replayEntry{}); got != 32 {
		t.Fatalf("replayEntry is %d bytes, want 32", got)
	}
	if hasPointers(reflect.TypeOf(replayEntry{})) {
		t.Fatal("replayEntry holds a pointer")
	}

	r := newReplayRing(8)
	base := time.Unix(1_700_000_000, 123_456_789)
	var first []heartbeat.Record
	for i, d := range []time.Duration{0, 1500 * time.Nanosecond, 1500 * time.Nanosecond, -40 * time.Microsecond, time.Hour} {
		first = append(first, heartbeat.Record{Seq: uint64(900 + i), Time: base.Add(d), Tag: int64(i*i) - 3, Producer: int32(i)})
	}
	r.append(first, 2, -1) // upstream losses ahead of the records, producers kept
	r.append([]heartbeat.Record{
		{Seq: 5, Time: base.Add(-time.Second), Tag: 1 << 40, Producer: 3},
		{Seq: 6, Time: base.Add(-time.Second), Tag: -1 << 50, Producer: 3},
	}, 0, 7) // producer overwritten with the hop-local id

	for _, tc := range []struct {
		since  uint64
		max    int
		golden string
	}{
		{0, 100, "000000460309090002000706aab4aed8c7bfce972f050002b81703020200020402b788050c060280f1c98bc6d1011a0802ffa79bc5cdd1018080808080400e0200ffffffffffffff030e"},
		{3, 3, "0000001d0306060000000308e2cbaed8c7bfce972f03020200020402b788050c06"},
		{4, 100, "0000003d030909000000050ae2cbaed8c7bfce972f020402b788050c060280f1c98bc6d1011a0802ffa79bc5cdd1018080808080400e0200ffffffffffffff030e"},
	} {
		fb, cur, _, _, _ := r.frameSince(tc.since, tc.max)
		if fb == nil {
			t.Fatalf("frameSince(%d, %d): no frame", tc.since, tc.max)
		}
		got := hex.EncodeToString(fb.data)
		fb.release()
		if got != tc.golden {
			t.Errorf("frameSince(%d, %d) (cursor %d) =\n%s\nwant\n%s", tc.since, tc.max, cur, got, tc.golden)
		}
	}

	// readSince hands back what went in, re-sequenced.
	recs, _, _, _, _ := r.readSince(2, 100)
	if len(recs) != 7 {
		t.Fatalf("readSince returned %d records, want 7", len(recs))
	}
	for i, rec := range recs[:5] {
		want := first[i]
		if rec.Seq != uint64(3+i) || !rec.Time.Equal(want.Time) || rec.Tag != want.Tag || rec.Producer != want.Producer {
			t.Fatalf("record %d = %+v, want %+v at seq %d", i, rec, want, 3+i)
		}
	}
	if recs[6].Producer != 7 || recs[6].Tag != -1<<50 || recs[6].Seq != 9 {
		t.Fatalf("last record = %+v", recs[6])
	}
}

// A recycled slice is decoded into only when it holds the whole frame;
// otherwise the frame gets a slice of exactly its length, never one grown
// by append.
func TestDecodeBatchIntoSizesExactly(t *testing.T) {
	var b observer.Batch
	for i := 1; i <= 5; i++ {
		b.Records = append(b.Records, heartbeat.Record{Seq: uint64(i), Time: time.Unix(0, int64(i)), Tag: int64(i)})
	}
	frame := appendBatch(nil, b, 5)[1:]

	small := make([]heartbeat.Record, 0, 2)
	got, _, err := decodeBatchInto(frame, small)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 5 || cap(got.Records) != 5 {
		t.Fatalf("decoded into a 2-slot slice: len %d cap %d, want 5 and 5", len(got.Records), cap(got.Records))
	}

	large := make([]heartbeat.Record, 0, 8)
	got, _, err = decodeBatchInto(frame, large)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 5 || &got.Records[:1][0] != &large[:1][0] {
		t.Fatal("a recycled slice that holds the frame was not reused")
	}
}

// stepStream serves `frames` batches of 1–37 dense records, then ends.
type stepStream struct {
	seq    uint64
	served int
	frames int
}

func (s *stepStream) Next(context.Context) (observer.Batch, error) {
	if s.served == s.frames {
		return observer.Batch{}, io.EOF
	}
	n := s.served%37 + 1
	s.served++
	recs := make([]heartbeat.Record, n)
	for i := range recs {
		s.seq++
		recs[i] = heartbeat.Record{Seq: s.seq, Time: time.Unix(0, int64(s.seq)*1000), Tag: int64(s.seq)}
	}
	return observer.Batch{Records: recs, Count: s.seq}, nil
}

// A stalled consumer finds at most one decoded frame waiting: the client
// reads ahead by one frame, and the rest of the stream waits in the
// socket. Drained with Recycle, the client's free list never holds more
// than three slices — decoding, queued, consuming — and every record
// arrives exactly once.
func TestClientReadAheadOneFrame(t *testing.T) {
	const frames = 400
	srv := NewServer()
	if err := srv.Publish("steps", func(ctx context.Context, since uint64) (observer.Stream, error) {
		return &stepStream{frames: frames}, nil
	}); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)
	c, err := Dial(addr, "steps", WithoutReconnect())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	queued := 0
	for stall := time.Now().Add(300 * time.Millisecond); time.Now().Before(stall); time.Sleep(time.Millisecond) {
		queued = max(queued, len(c.batches))
	}
	if queued > 1 {
		t.Fatalf("a stalled consumer had %d decoded frames queued, want at most 1", queued)
	}

	var recs []heartbeat.Record
	free := 0
	for {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		b, err := c.Next(ctx)
		cancel()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Next after %d records: %v", len(recs), err)
		}
		recs = append(recs, b.Records...)
		c.Recycle(b)
		c.recMu.Lock()
		free = max(free, len(c.recFree))
		c.recMu.Unlock()
	}
	if free > 3 {
		t.Fatalf("the recycled free list held %d slices, want at most 3", free)
	}
	want := 0
	for k := 0; k < frames; k++ {
		want += k%37 + 1
	}
	if len(recs) != want {
		t.Fatalf("received %d records, want %d", len(recs), want)
	}
	assertDense(t, recs, 0)
}
