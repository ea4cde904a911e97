package parsec

import (
	"testing"

	"repro/heartbeat"
)

func TestRunParallelPopulatesLocalAndGlobal(t *testing.T) {
	hb, err := heartbeat.New(10, heartbeat.WithCapacity(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	const workers, units = 4, 30
	cs := RunParallel(func() Kernel { return NewFerret() }, hb, workers, units, 1)
	if cs == 0 {
		t.Error("zero combined checksum is suspicious")
	}
	// ferret beats every unit: each worker contributes `units` local beats
	// and the same number of attributed global beats.
	if hb.Count() != workers*units {
		t.Fatalf("global Count = %d, want %d", hb.Count(), workers*units)
	}
	// Every global record is attributed to one of the workers' registered
	// threads, and each worker contributed its share.
	perProducer := make(map[int32]int)
	for _, rec := range hb.History(1 << 12) {
		if rec.Producer < 1 || rec.Producer > int32(workers) {
			t.Fatalf("unattributed global record: %+v", rec)
		}
		perProducer[rec.Producer]++
	}
	if len(perProducer) != workers {
		t.Fatalf("records from %d threads, want %d", len(perProducer), workers)
	}
	for id, n := range perProducer {
		if n != units {
			t.Fatalf("thread %d contributed %d global beats, want %d", id, n, units)
		}
	}
}

func TestRunParallelBatchedKernel(t *testing.T) {
	hb, err := heartbeat.New(10)
	if err != nil {
		t.Fatal(err)
	}
	// canneal beats every 1875 moves; give each worker 2 beats' worth.
	RunParallel(func() Kernel { return NewCanneal() }, hb, 2, 3750, 7)
	if hb.Count() != 4 {
		t.Fatalf("global Count = %d, want 4 (2 workers x 2 batches)", hb.Count())
	}
}

func TestRunParallelClampsWorkers(t *testing.T) {
	hb, err := heartbeat.New(10)
	if err != nil {
		t.Fatal(err)
	}
	RunParallel(func() Kernel { return NewSwaptions() }, hb, 0, 5, 1)
	if hb.Count() != 5 {
		t.Fatalf("Count = %d, want 5 from single clamped worker", hb.Count())
	}
}
