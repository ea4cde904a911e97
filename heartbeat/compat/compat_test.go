package compat_test

import (
	"testing"
	"time"

	"repro/clock"
	"repro/heartbeat"
	"repro/heartbeat/compat"
)

func newHB(t *testing.T) (*compat.HB, *clock.Virtual) {
	t.Helper()
	clk := clock.NewVirtual()
	hb, err := compat.Initialize(10, false, heartbeat.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	return hb, clk
}

func TestGlobalRoundTrip(t *testing.T) {
	hb, clk := newHB(t)
	for i := 0; i < 10; i++ {
		if err := hb.Heartbeat(int64(i), false, 0); err != nil {
			t.Fatal(err)
		}
		clk.Advance(100 * time.Millisecond)
	}
	r, err := hb.CurrentRate(0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r < 9.99 || r > 10.01 {
		t.Fatalf("CurrentRate = %v, want 10", r)
	}
	recs, err := hb.GetHistory(3, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Tag != 9 {
		t.Fatalf("GetHistory = %+v", recs)
	}
}

func TestTargets(t *testing.T) {
	hb, _ := newHB(t)
	if hb.GetTargetMin(false) != 0 || hb.GetTargetMax(false) != 0 {
		t.Fatal("targets nonzero before SetTargetRate")
	}
	if err := hb.SetTargetRate(2.5, 3.5, false); err != nil {
		t.Fatal(err)
	}
	if hb.GetTargetMin(false) != 2.5 || hb.GetTargetMax(false) != 3.5 {
		t.Fatalf("targets = %v, %v", hb.GetTargetMin(false), hb.GetTargetMax(false))
	}
}

func TestLocalHeartbeats(t *testing.T) {
	hb, clk := newHB(t)
	tid := hb.RegisterThread("worker")
	for i := 0; i < 5; i++ {
		if err := hb.Heartbeat(0, true, tid); err != nil {
			t.Fatal(err)
		}
		clk.Advance(200 * time.Millisecond)
	}
	r, err := hb.CurrentRate(0, true, tid)
	if err != nil {
		t.Fatal(err)
	}
	if r < 4.99 || r > 5.01 {
		t.Fatalf("local rate = %v, want 5", r)
	}
	// Global history must be untouched by local beats.
	if hb.App().Count() != 0 {
		t.Fatalf("global count = %d", hb.App().Count())
	}
	recs, err := hb.GetHistory(10, true, tid)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("local history = %d records", len(recs))
	}
}

func TestUnknownThreadKey(t *testing.T) {
	hb, _ := newHB(t)
	if err := hb.Heartbeat(0, true, 42); err == nil {
		t.Fatal("beat on unknown thread key accepted")
	}
	if _, err := hb.CurrentRate(0, true, 42); err == nil {
		t.Fatal("rate on unknown thread key accepted")
	}
	if _, err := hb.GetHistory(1, true, 42); err == nil {
		t.Fatal("history on unknown thread key accepted")
	}
}

func TestInitializeValidation(t *testing.T) {
	if _, err := compat.Initialize(-3, false); err == nil {
		t.Fatal("negative window accepted")
	}
}
