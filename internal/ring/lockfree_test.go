package ring

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSPSequentialSemantics(t *testing.T) {
	r := NewSP(64)
	if r.Cap() != 64 || r.Total() != 0 {
		t.Fatalf("fresh ring: cap %d total %d", r.Cap(), r.Total())
	}
	if r.Last(10) != nil {
		t.Fatal("Last on empty ring not nil")
	}
	if _, ok := r.Read(1); ok {
		t.Fatal("Read(1) ok on empty ring")
	}

	// Three beats at t=100 (one tagged), two at t=200.
	seq, newRun := r.Push(100, 0)
	if seq != 1 || !newRun {
		t.Fatalf("first push: seq %d newRun %v", seq, newRun)
	}
	if seq, newRun = r.Push(100, 7); seq != 2 || newRun {
		t.Fatalf("second push: seq %d newRun %v", seq, newRun)
	}
	r.Push(100, 0)
	if seq, newRun = r.Push(200, 0); seq != 4 || !newRun {
		t.Fatalf("new-run push: seq %d newRun %v", seq, newRun)
	}
	r.Push(200, -3)

	if r.Total() != 5 || r.Entries() != 2 {
		t.Fatalf("total %d entries %d, want 5 and 2", r.Total(), r.Entries())
	}
	want := []Entry{{1, 100, 0}, {2, 100, 7}, {3, 100, 0}, {4, 200, 0}, {5, 200, -3}}
	got := r.Last(100)
	if len(got) != len(want) {
		t.Fatalf("Last = %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Last[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if e, ok := r.Read(2); !ok || e != want[1] {
		t.Fatalf("Read(2) = %+v, %v", e, ok)
	}
	if _, ok := r.Read(6); ok {
		t.Fatal("Read past total ok")
	}
	if last := r.Last(2); len(last) != 2 || last[0].Seq != 4 {
		t.Fatalf("Last(2) = %+v", last)
	}
}

// Property: driven sequentially with arbitrary time/tag streams, SP agrees
// record-for-record with the plain Buffer oracle over the retained window.
func TestSPEquivalenceProperty(t *testing.T) {
	f := func(capRaw uint8, ops []uint16) bool {
		capacity := int(capRaw)%50 + 8
		sp := NewSP(capacity)
		oracle := New[Entry](capacity)
		now := int64(1)
		for i, op := range ops {
			if op%3 == 0 { // repeat the timestamp on every third op
				now += int64(op % 97)
			}
			tag := int64(0)
			if op%2 == 0 {
				tag = int64(op) - 40
			}
			seq, _ := sp.Push(now, tag)
			oracle.Push(Entry{Seq: uint64(i + 1), Time: now, Tag: tag})
			if seq != uint64(i+1) {
				return false
			}
		}
		if sp.Total() != oracle.Total() {
			return false
		}
		for _, n := range []int{0, 1, capacity / 2, capacity, capacity + 10} {
			a, b := sp.Last(n), oracle.Last(n)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Readers racing a wrapping producer must never observe a torn record: the
// producer stamps time = 2*seqIndex+7 and tag = seqIndex so any mismatched
// pair is detectable.
func TestSPNoTornReadsUnderWrap(t *testing.T) {
	const (
		capacity = 32 // small: force heavy wraparound
		pushes   = 20000
	)
	r := NewSP(capacity)
	var torn atomic.Int64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, e := range r.Last(capacity) {
					if e.Time != 2*int64(e.Seq)+7 || (e.Tag != 0 && e.Tag != int64(e.Seq)) {
						torn.Add(1)
						return
					}
				}
				if e, ok := r.Read(r.Total()); ok {
					if e.Time != 2*int64(e.Seq)+7 {
						torn.Add(1)
						return
					}
				}
			}
		}()
	}
	for i := int64(1); i <= pushes; i++ {
		tag := int64(0)
		if i%3 == 0 {
			tag = i
		}
		r.Push(2*i+7, tag)
	}
	close(stop)
	readers.Wait()
	if torn.Load() != 0 {
		t.Fatalf("observed %d torn records", torn.Load())
	}
	if r.Total() != pushes {
		t.Fatalf("total = %d, want %d", r.Total(), pushes)
	}
	recs := r.Last(capacity)
	if len(recs) != capacity {
		t.Fatalf("retained %d records, want %d", len(recs), capacity)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("records not dense: %d then %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
}

// A cursor must consume every record exactly once, in order, with correct
// times and tags, while the producer stays within the no-overwrite budget
// the heartbeat aggregator enforces.
func TestSPCursorConsumesAll(t *testing.T) {
	const capacity = 128
	r := NewSP(capacity)
	cur := r.NewCursor()
	next := uint64(1)
	now := int64(5)
	for round := 0; round < 200; round++ {
		n := uint64(round%(capacity/2) + 1)
		for i := uint64(0); i < n; i++ {
			if i%4 == 0 {
				now += 3
			}
			r.Push(now, int64(r.Total()%5))
		}
		limit := r.Total()
		for {
			e, ok := cur.Next(limit)
			if !ok {
				break
			}
			if e.Seq != next {
				t.Fatalf("cursor out of order: got %d, want %d", e.Seq, next)
			}
			if e.Tag != int64((e.Seq-1)%5) {
				t.Fatalf("seq %d tag = %d, want %d", e.Seq, e.Tag, (e.Seq-1)%5)
			}
			if want, ok := r.Read(e.Seq); ok && want.Time != e.Time {
				t.Fatalf("seq %d time = %d, want %d", e.Seq, e.Time, want.Time)
			}
			next = e.Seq + 1
		}
		if cur.Consumed() != limit {
			t.Fatalf("consumed %d, want %d", cur.Consumed(), limit)
		}
	}
}

// Skip and RunLen drive the aggregator's lazy-discard path: runs report
// contiguous same-timestamp spans and skipping stays consistent with Next.
func TestSPCursorRunsAndSkip(t *testing.T) {
	r := NewSP(64)
	for i := 0; i < 10; i++ {
		r.Push(100, int64(i))
	}
	for i := 0; i < 5; i++ {
		r.Push(200, 0)
	}
	cur := r.NewCursor()
	limit := r.Total()
	if tm := cur.PeekTime(); tm != 100 {
		t.Fatalf("PeekTime = %d, want 100", tm)
	}
	if n := cur.RunLen(limit); n != 10 {
		t.Fatalf("RunLen = %d, want 10", n)
	}
	cur.Skip(7)
	if n := cur.RunLen(limit); n != 3 {
		t.Fatalf("RunLen after skip = %d, want 3", n)
	}
	e, ok := cur.Next(limit)
	if !ok || e.Seq != 8 || e.Time != 100 || e.Tag != 7 {
		t.Fatalf("Next after skip = %+v, %v", e, ok)
	}
	cur.Skip(2)
	if tm := cur.PeekTime(); tm != 200 {
		t.Fatalf("PeekTime in second run = %d, want 200", tm)
	}
	if n := cur.RunLen(limit); n != 5 {
		t.Fatalf("second RunLen = %d, want 5", n)
	}
	for want := uint64(11); want <= 15; want++ {
		e, ok := cur.Next(limit)
		if !ok || e.Seq != want || e.Time != 200 {
			t.Fatalf("tail Next = %+v, %v (want seq %d)", e, ok, want)
		}
	}
	if _, ok := cur.Next(limit); ok {
		t.Fatal("Next past limit ok")
	}
}

// The measured side of every //hbvet:hotpath mark in this package: each
// marked function allocates nothing on a warmed ring that has lapped, with
// a cursor kept within the no-overwrite budget as the aggregator keeps it.
func TestHotPathZeroAlloc(t *testing.T) {
	const capacity = 64
	r := NewSP(capacity)
	cur := r.NewCursor()
	now := int64(1)
	// push appends n records: a new time run every third, a tag every other,
	// so any three consecutive pushes take every branch of Push. AllocsPerRun
	// rounds down, so each measured op pushes three.
	push := func(n int) {
		for i := 0; i < n; i++ {
			if r.Total()%3 == 0 {
				now++
			}
			r.Push(now, int64(r.Total()%2))
		}
	}
	drain := func() { cur.Skip(r.Total() - cur.Consumed()) }
	for i := 0; i < 64; i++ {
		push(8)
		drain()
	}
	if r.Total() <= capacity || r.Entries() <= capacity {
		t.Fatalf("ring not lapped: total %d, entries %d", r.Total(), r.Entries())
	}
	if _, ok := r.Read(r.Total() - capacity/2); !ok {
		t.Fatal("Read inside the retained window failed")
	}
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"SP.Push", func() { push(3); drain() }},
		{"SP.Total", func() { r.Total() }},
		{"SP.Entries", func() { r.Entries() }},
		{"SP.Read", func() { r.Read(r.Total()); r.Read(r.Total() - capacity/2) }},
		{"Cursor.Next", func() { push(3); cur.Next(r.Total()); cur.Next(r.Total()); cur.Next(r.Total()) }},
		{"Cursor.PeekTime", func() { push(3); cur.PeekTime(); drain() }},
		{"Cursor.RunLen", func() { push(3); cur.RunLen(r.Total()); drain() }},
		{"Cursor.Skip", func() { push(3); cur.Skip(3) }},
	} {
		if got := testing.AllocsPerRun(1000, c.op); got != 0 {
			t.Errorf("%s allocates %v per op", c.name, got)
		}
	}
}

func TestBufferSkip(t *testing.T) {
	b := New[int](4)
	b.Push(1)
	b.Push(2)
	b.Skip(3)
	b.Push(9)
	if b.Total() != 6 {
		t.Fatalf("Total = %d, want 6", b.Total())
	}
	got := b.Snapshot()
	want := []int{0, 0, 0, 9} // skipped positions read back as zeros
	if len(got) != len(want) {
		t.Fatalf("Snapshot = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Snapshot = %v, want %v", got, want)
		}
	}
	b.Skip(100) // skipping far past capacity clears everything retained
	for _, v := range b.Snapshot() {
		if v != 0 {
			t.Fatalf("Snapshot after big skip = %v", b.Snapshot())
		}
	}
}
