package simcheck

import (
	"strings"
	"testing"

	"repro/heartbeat"
	"repro/observer"
)

func recs(seqs ...uint64) []heartbeat.Record {
	out := make([]heartbeat.Record, len(seqs))
	for i, s := range seqs {
		out[i] = heartbeat.Record{Seq: s}
	}
	return out
}

func TestDense(t *testing.T) {
	if err := Dense(recs(1, 2, 3), 0); err != nil {
		t.Fatal(err)
	}
	if err := Dense(recs(5, 6), 4); err != nil {
		t.Fatal(err)
	}
	if err := Dense(recs(1, 3), 0); err == nil {
		t.Fatal("gap not detected")
	}
	if err := Dense(recs(1, 1), 0); err == nil {
		t.Fatal("duplicate not detected")
	}
}

func TestConserved(t *testing.T) {
	if err := Conserved("x", 7, 3, 10); err != nil {
		t.Fatal(err)
	}
	if err := Conserved("x", 7, 2, 10); err == nil {
		t.Fatal("leak not detected")
	}
}

func TestTrackerCleanContinuation(t *testing.T) {
	tr := NewTracker("t", 0)
	if err := tr.Absorb(observer.Batch{Records: recs(1, 2, 3), Count: 3}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Absorb(observer.Batch{Records: recs(4, 5), Count: 5}); err != nil {
		t.Fatal(err)
	}
	if tr.Delivered() != 5 || tr.Missed() != 0 || tr.Cursor() != 5 {
		t.Fatalf("delivered %d missed %d cursor %d", tr.Delivered(), tr.Missed(), tr.Cursor())
	}
	if err := tr.CheckLives(1); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckConserved(5); err != nil {
		t.Fatal(err)
	}
}

func TestTrackerLapAccounting(t *testing.T) {
	tr := NewTracker("t", 0)
	// A lap: seqs 1..10 published, 1..4 overwritten before delivery.
	if err := tr.Absorb(observer.Batch{Records: recs(5, 6, 7, 8, 9, 10), Count: 10, Missed: 4}); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckConserved(10); err != nil {
		t.Fatal(err)
	}
	// Under-reported loss is a violation.
	tr2 := NewTracker("t2", 0)
	if err := tr2.Absorb(observer.Batch{Records: recs(5, 6), Count: 6, Missed: 2}); err == nil {
		t.Fatal("under-reported Missed not detected")
	}
	// Over-reported loss too.
	tr3 := NewTracker("t3", 0)
	if err := tr3.Absorb(observer.Batch{Records: recs(1, 2), Count: 2, Missed: 1}); err == nil {
		t.Fatal("over-reported Missed not detected")
	}
}

func TestTrackerMissedOnlyBatch(t *testing.T) {
	tr := NewTracker("t", 0)
	if err := tr.Absorb(observer.Batch{Records: recs(1, 2), Count: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Absorb(observer.Batch{Count: 5, Missed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Absorb(observer.Batch{Records: recs(6, 7), Count: 7}); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckConserved(7); err != nil {
		t.Fatal(err)
	}
}

func TestTrackerRestartRotatesLife(t *testing.T) {
	tr := NewTracker("t", 0)
	if err := tr.Absorb(observer.Batch{Records: recs(1, 2, 3), Count: 3}); err != nil {
		t.Fatal(err)
	}
	// Producer restarted; the stream resynced to zero and redelivers the
	// new life from seq 1.
	if err := tr.Absorb(observer.Batch{Records: recs(1, 2), Count: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckLives(2); err != nil {
		t.Fatal(err)
	}
	// Conservation across lives: 3 + 2 published in total.
	if err := tr.CheckConserved(5); err != nil {
		t.Fatal(err)
	}
	lives := tr.Lives()
	if lives[0].Head != 3 || lives[1].Head != 2 {
		t.Fatalf("life heads %+v", lives)
	}
}

func TestTrackerRestartLappedPastOldCursor(t *testing.T) {
	// The new life lapped beyond the OLD cursor before its first delivery:
	// the batch's first seq is above the old cursor, so it superficially
	// looks like a continuation — but only the restart reading (Missed
	// exact relative to zero) accounts it. Absorb must rotate, not fail.
	tr := NewTracker("t", 0)
	if err := tr.Absorb(observer.Batch{Records: recs(1, 2, 3, 4, 5), Count: 5}); err != nil { // cursor 5
		t.Fatal(err)
	}
	// New life at head 40, ring retains 31..40: Missed=30 relative to zero.
	burst := recs(31, 32, 33, 34, 35, 36, 37, 38, 39, 40)
	if err := tr.Absorb(observer.Batch{Records: burst, Count: 40, Missed: 30}); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckLives(2); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckConserved(45); err != nil {
		t.Fatal(err)
	}
}

func TestTrackerRestartWithNewLifeLap(t *testing.T) {
	tr := NewTracker("t", 0)
	if err := tr.Absorb(observer.Batch{Records: recs(1, 2, 3, 4, 5), Count: 5}); err != nil {
		t.Fatal(err)
	}
	// New life already at head 8 with records 1..3 lapped: the resynced
	// stream reports Missed relative to zero.
	if err := tr.Absorb(observer.Batch{Records: recs(4, 5, 6, 7, 8), Count: 8, Missed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckLives(2); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckConserved(13); err != nil {
		t.Fatal(err)
	}
}

// A record-free batch takes the same two shapes as one with records: a
// loss that continues from the cursor, or a restart whose new life had no
// readable record at the first read (its whole span Missed, counted from
// zero). Nothing else is legal.
func TestTrackerRecordFreeBatches(t *testing.T) {
	tr := NewTracker("t", 0)
	for _, b := range []observer.Batch{
		{Records: recs(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12), Count: 12},
		{Count: 9, Missed: 9},                      // restart: nothing of the new life readable yet
		{Records: recs(10, 11), Count: 11},         // the new life continues
		{Count: 11},                                // a batch that moves nothing
		{Count: 14, Missed: 3},                     // a loss that continues
		{Records: recs(1, 2), Count: 4, Missed: 2}, // restart: the tail is lost
	} {
		if err := tr.Absorb(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.CheckLives(3); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckConserved(12 + 14 + 4); err != nil {
		t.Fatal(err)
	}
	for _, b := range []observer.Batch{
		{Count: 2, Missed: 1},                      // below the cursor, not from zero
		{Count: 9, Missed: 4},                      // above it, losing too much or too little
		{Records: recs(5, 6), Count: 5, Missed: 3}, // a record past the Count
	} {
		if err := NewTracker("bad", 4).Absorb(b); err == nil {
			t.Fatalf("batch %+v from cursor 4 accepted", b)
		}
	}
}

func TestTrackerDuplicateDetected(t *testing.T) {
	tr := NewTracker("t", 0)
	if err := tr.Absorb(observer.Batch{Records: recs(1, 2, 3), Count: 3}); err != nil {
		t.Fatal(err)
	}
	// A re-delivered batch is a regression that does NOT look like a
	// restart resync (its Missed accounting is wrong relative to zero)…
	if err := tr.Absorb(observer.Batch{Records: recs(2, 3), Count: 3}); err == nil {
		t.Fatal("duplicate delivery not detected")
	}
	// …and even one that does (dense from 1) is caught by the life count.
	tr2 := NewTracker("t2", 0)
	tr2.Absorb(observer.Batch{Records: recs(1, 2, 3), Count: 3})
	tr2.Absorb(observer.Batch{Records: recs(1, 2, 3), Count: 3})
	if err := tr2.CheckLives(1); err == nil {
		t.Fatal("duplicate-as-restart not caught by life count")
	}
}

func TestTrackerUnsortedBatch(t *testing.T) {
	tr := NewTracker("t", 0)
	err := tr.Absorb(observer.Batch{Records: recs(1, 3, 2), Count: 3})
	if err == nil || !strings.Contains(err.Error(), "strictly increasing") {
		t.Fatalf("unsorted batch not detected: %v", err)
	}
	if tr.Err() == nil {
		t.Fatal("violation not latched")
	}
}

func TestRollupAccount(t *testing.T) {
	var a RollupAccount
	a.AbsorbRollups([]observer.Rollup{{Records: 10, Missed: 2}, {Records: 5}}, 0)
	a.AbsorbRollups([]observer.Rollup{{Records: 3}}, 0)
	if err := a.CheckConserved("rollups", 20); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckConserved("rollups", 21); err == nil {
		t.Fatal("imbalance not detected")
	}
	a.AbsorbRollups(nil, 1)
	if err := a.CheckConserved("rollups", 20); err == nil {
		t.Fatal("lapped emissions must make conservation unverifiable")
	}
}

func TestCheckRemap(t *testing.T) {
	// A remove-1-of-8 swap: share 1/8, measured fraction right at
	// expectation passes; double the expectation fails.
	if err := CheckRemap("ok", 0.125, 0.125); err != nil {
		t.Fatalf("expected remap flagged: %v", err)
	}
	if err := CheckRemap("bad", 0.30, 0.125); err == nil {
		t.Fatal("a swap moving 2.4x its share passed the bound")
	}
	// Tiny shares get the additive allowance (bucket granularity).
	if err := CheckRemap("tiny", 0.02, 0.0); err != nil {
		t.Fatalf("sub-granularity movement flagged: %v", err)
	}
	// A full-table swap (first admission, last drain) is legal by
	// construction: share 1 bounds any fraction.
	if err := CheckRemap("full", 1.0, 1.0); err != nil {
		t.Fatalf("full-share swap flagged: %v", err)
	}
}

func TestCeiling(t *testing.T) {
	if err := Ceiling("p99 (ms)", 11, 2500); err != nil {
		t.Fatalf("measurement under its ceiling flagged: %v", err)
	}
	if err := Ceiling("p99 (ms)", 2500, 2500); err != nil {
		t.Fatalf("measurement exactly at its ceiling flagged: %v", err)
	}
	err := Ceiling("bytes/producer", 9000, 7000)
	if err == nil {
		t.Fatal("budget blowout not detected")
	}
	if !strings.Contains(err.Error(), "bytes/producer") {
		t.Fatalf("violation does not name the budget: %v", err)
	}
}
