package check

import (
	"strings"
	"testing"
)

// feed observes indices 0..n-1 of app 0, leaving out skip (if >= 0).
func feed(o *Order, n uint64, skip int) {
	for i := uint64(0); i < n; i++ {
		if int(i) != skip {
			o.Observe(Tag(0, i))
		}
	}
}

func TestCompleteStreamPasses(t *testing.T) {
	o := NewOrder(2)
	feed(o, 100, -1)
	for i := uint64(0); i < 50; i++ {
		o.Observe(Tag(1, i))
	}
	if err := o.Conserved([]uint64{100, 50}, 0); err != nil {
		t.Fatal(err)
	}
	if o.Total() != 150 || o.Delivered(1) != 50 {
		t.Errorf("total %d, app 1 %d", o.Total(), o.Delivered(1))
	}
}

func TestBrokenConsumerThatSkipsOneRecordFails(t *testing.T) {
	o := NewOrder(1)
	feed(o, 100, 41)
	err := o.Conserved([]uint64{100}, 0)
	if err == nil || !strings.Contains(err.Error(), "delivered 99 of 100") {
		t.Fatalf("skipped record not caught: %v", err)
	}
	// The same gap is fine once the stream owns up to it.
	if err := o.Conserved([]uint64{100}, 1); err != nil {
		t.Fatalf("counted loss rejected: %v", err)
	}
}

func TestDuplicateAndReorderFail(t *testing.T) {
	o := NewOrder(1)
	feed(o, 10, -1)
	o.Observe(Tag(0, 9))
	if err := o.Conserved([]uint64{10}, 0); err == nil {
		t.Fatal("duplicate not caught")
	}
	o = NewOrder(1)
	o.Observe(Tag(0, 1))
	o.Observe(Tag(0, 0))
	if err := o.Conserved([]uint64{2}, 0); err == nil {
		t.Fatal("reorder not caught")
	}
}

func TestUnpublishedAndMiscountedFail(t *testing.T) {
	o := NewOrder(1)
	feed(o, 10, -1)
	if err := o.Conserved([]uint64{9}, 0); err == nil {
		t.Fatal("record beyond the published count not caught")
	}
	if err := o.Conserved([]uint64{10}, 3); err == nil {
		t.Fatal("delivered + missed > published not caught")
	}
	o.Observe(Tag(5, 0))
	if err := o.Conserved([]uint64{11}, 0); err == nil {
		t.Fatal("unknown app not caught")
	}
}

func TestZeroAndRollups(t *testing.T) {
	if err := Zero(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := Zero(0, 2, 0); err == nil {
		t.Fatal("shed not caught")
	}
	if err := Rollups([]uint64{90, 5}, []uint64{10, 0}, []uint64{100, 5}); err != nil {
		t.Fatal(err)
	}
	if err := Rollups([]uint64{90}, []uint64{9}, []uint64{100}); err == nil {
		t.Fatal("rollup shortfall not caught")
	}
}

func TestTagRoundTrip(t *testing.T) {
	app, idx := Split(Tag(255, 1<<39+17))
	if app != 255 || idx != 1<<39+17 {
		t.Errorf("got %d %d", app, idx)
	}
}
