package heartbeat

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cursor"
)

// Both store implementations must agree on everything observable when
// driven sequentially: the locked store is the oracle for the lock-free one.
func TestStoreEquivalenceProperty(t *testing.T) {
	f := func(capRaw uint8, ops []uint16) bool {
		capacity := int(capRaw)%50 + 2
		lf := newLockfreeStore(capacity)
		lk := newLockedStore(capacity)
		now := int64(1)
		for _, op := range ops {
			tag := int64(op)
			now += int64(op%97) + 1
			s1 := lf.append(now, tag, 3)
			s2 := lk.append(now, tag, 3)
			if s1 != s2 {
				return false
			}
		}
		if lf.total() != lk.total() || lf.capacity() != lk.capacity() {
			return false
		}
		for _, n := range []int{0, 1, capacity / 2, capacity, capacity + 10} {
			a, b := lf.last(n), lk.last(n)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Both stores page a read the same way: at most cursor.Page positions,
// oldest retained first, the cursor at the page's end. A history larger than a page is read whole
// in pages, each one continuing where the last stopped.
func TestStoresPageIdentically(t *testing.T) {
	const capacity = cursor.Page + 100
	for name, s := range map[string]store{"lockfree": newLockfreeStore(capacity), "locked": newLockedStore(capacity)} {
		t.Run(name, func(t *testing.T) {
			s.appendRun(1, 0, make([]int64, capacity+103))
			head := s.total() // 103 lapped
			var since, got uint64
			var pages []uint64
			for since != head {
				recs, next := s.readSince(since, nil)
				if next-max(since, head-capacity) > cursor.Page {
					t.Fatalf("readSince(%d) = %d records up to %d: more than a page", since, len(recs), next)
				}
				for i, r := range recs {
					if r.Seq <= since || r.Seq > next || i > 0 && r.Seq <= recs[i-1].Seq {
						t.Fatalf("readSince(%d) up to %d returned seq %d at %d", since, next, r.Seq, i)
					}
				}
				got += uint64(len(recs))
				pages = append(pages, next)
				since = next
			}
			want := []uint64{head - capacity + cursor.Page, head}
			if len(pages) != 2 || pages[0] != want[0] || pages[1] != want[1] {
				t.Fatalf("pages ended at %v, want %v", pages, want)
			}
			if got != capacity {
				t.Fatalf("read %d records, want the %d retained", got, capacity)
			}
		})
	}
}

// Records returned by the lock-free store under concurrent writers must
// never be torn: we encode a checksum relation between tag and time and
// verify every record read maintains it.
func TestLockfreeStoreNoTornReads(t *testing.T) {
	const (
		writers   = 8
		perWriter = 2000
		capacity  = 64 // small: force heavy wraparound
	)
	s := newLockfreeStore(capacity)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers hammer last() while writers wrap the ring.
	var torn atomic.Int64
	var readerWg sync.WaitGroup
	for r := 0; r < 4; r++ {
		readerWg.Add(1)
		go func() {
			defer readerWg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, rec := range s.last(capacity) {
					// invariant stamped by the writers: time == tag*2+7
					if rec.Time.UnixNano() != rec.Tag*2+7 {
						torn.Add(1)
						return
					}
				}
			}
		}()
	}

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tag := int64(w*perWriter + i)
				s.append(tag*2+7, tag, int32(w))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWg.Wait()

	if torn.Load() != 0 {
		t.Fatalf("observed %d torn records", torn.Load())
	}
	if got := s.total(); got != writers*perWriter {
		t.Fatalf("total = %d, want %d", got, writers*perWriter)
	}
	// After quiescence every retained record must be valid and dense-ish.
	recs := s.last(capacity)
	if len(recs) != capacity {
		t.Fatalf("retained %d records, want %d", len(recs), capacity)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("records out of order: %d then %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
}

func TestLockfreeReadStates(t *testing.T) {
	s := newLockfreeStore(4)
	if _, ok := s.read(0); ok {
		t.Fatal("read(0) ok")
	}
	if _, ok := s.read(1); ok {
		t.Fatal("read of unwritten slot ok")
	}
	for i := int64(1); i <= 6; i++ {
		s.append(i, i, 0)
	}
	// seq 1 and 2 have been overwritten by 5 and 6 (capacity 4).
	if _, ok := s.read(1); ok {
		t.Fatal("read of overwritten record ok")
	}
	r, ok := s.read(5)
	if !ok || r.Tag != 5 || r.Time != time.Unix(0, 5) {
		t.Fatalf("read(5) = %+v, %v", r, ok)
	}
}

// The slot protocol has no mid-write mark: a reader tells that the writer
// lapping its slot has begun from the claim counter alone. Claim the lapping
// sequence number and store only its time — the lapped record must stop
// reading there and then; complete the put and the new one reads.
func TestLockfreeClaimInvalidatesLappedSlot(t *testing.T) {
	const capacity = 4
	s := newLockfreeStore(capacity)
	for i := int64(1); i <= capacity; i++ {
		s.append(i, 10*i, 7)
	}
	if r, ok := s.read(1); !ok || r.Tag != 10 {
		t.Fatalf("read(1) = %+v, %v before the lap", r, ok)
	}
	lap := s.claim(1)
	if lap != capacity+1 {
		t.Fatalf("claimed %d, want %d", lap, capacity+1)
	}
	if _, ok := s.read(1); ok {
		t.Fatal("read(1) ok once its slot was claimed by the next lap")
	}
	s.slots[0].time.Store(99) // the lapping writer, one field in
	if _, ok := s.read(1); ok {
		t.Fatal("read(1) ok with the lapping writer mid-put")
	}
	if _, ok := s.read(lap); ok {
		t.Fatal("read of a claimed, unpublished record ok")
	}
	// A cursor stops at the unpublished record to retry it, and does not
	// report it lost.
	recs, cursor := s.readSince(1, nil)
	if len(recs) != capacity-1 || cursor != capacity {
		t.Fatalf("readSince(1) = %d records, cursor %d; want %d records, cursor %d", len(recs), cursor, capacity-1, capacity)
	}
	s.put(lap, 99, 990, 3)
	if r, ok := s.read(lap); !ok || r.Tag != 990 || r.Time != time.Unix(0, 99) || r.Producer != 3 {
		t.Fatalf("read(%d) = %+v, %v after the put", lap, r, ok)
	}
	recs, cursor = s.readSince(capacity, nil)
	if len(recs) != 1 || recs[0].Seq != lap || cursor != lap {
		t.Fatalf("readSince(%d) = %+v, cursor %d", capacity, recs, cursor)
	}
}

// A run goes in under one claim, and reads back as the same records
// appending them one by one would have stored — on both stores.
func TestAppendRunMatchesAppend(t *testing.T) {
	for name, mk := range map[string]func(int) store{
		"lockfree": func(n int) store { return newLockfreeStore(n) },
		"locked":   func(n int) store { return newLockedStore(n) },
	} {
		one, run := mk(16), mk(16)
		tags := []int64{5, 0, -3, 1 << 40}
		for round := int64(1); round <= 7; round++ { // wraps the ring
			first := run.appendRun(100*round, int32(round), tags)
			for i, tag := range tags {
				if seq := one.append(100*round, tag, int32(round)); seq != first+uint64(i) {
					t.Fatalf("%s: run claimed %d for record %d, append gave %d", name, first+uint64(i), i, seq)
				}
			}
		}
		a, b := one.last(16), run.last(16)
		if len(a) != 16 || len(b) != 16 {
			t.Fatalf("%s: retained %d and %d records, want 16", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: record %d: append %+v, appendRun %+v", name, i, a[i], b[i])
			}
		}
	}
}

func TestConcurrentBeatsAllCounted(t *testing.T) {
	hb, err := New(10, WithCapacity(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, each = 16, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				hb.Beat()
			}
		}()
	}
	wg.Wait()
	if got := hb.Count(); got != goroutines*each {
		t.Fatalf("Count = %d, want %d", got, goroutines*each)
	}
	recs := hb.History(goroutines * each)
	if len(recs) != goroutines*each {
		t.Fatalf("History kept %d records, want %d", len(recs), goroutines*each)
	}
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}
