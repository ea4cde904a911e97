package heartbeat_test

import (
	"testing"
	"time"

	"repro/heartbeat"
)

func TestRateByTag(t *testing.T) {
	hb, clk := newTestHB(t, 20, heartbeat.WithCapacity(64))
	// Tag 7 beats every 1s; tag 9 beats every 250ms, interleaved.
	for i := 0; i < 12; i++ {
		clk.Advance(250 * time.Millisecond)
		hb.BeatTag(9)
		if i%4 == 3 {
			hb.BeatTag(7)
		}
	}
	r9, ok := hb.RateByTag(64, 9)
	if !ok || r9.PerSec < 3.99 || r9.PerSec > 4.01 {
		t.Fatalf("rate(tag 9) = %+v", r9)
	}
	r7, ok := hb.RateByTag(64, 7)
	if !ok || r7.PerSec < 0.99 || r7.PerSec > 1.01 {
		t.Fatalf("rate(tag 7) = %+v", r7)
	}
	if _, ok := hb.RateByTag(64, 42); ok {
		t.Fatal("rate of absent tag reported ok")
	}
}

func TestIntervalStats(t *testing.T) {
	hb, clk := newTestHB(t, 10)
	gaps := []time.Duration{100, 200, 300, 200} // ms
	hb.Beat()
	for _, g := range gaps {
		clk.Advance(g * time.Millisecond)
		hb.Beat()
	}
	st, ok := hb.IntervalStats(0)
	if !ok {
		t.Fatal("not ok")
	}
	if st.Beats != 5 || st.Min != 100*time.Millisecond || st.Max != 300*time.Millisecond {
		t.Fatalf("stats = %+v", st)
	}
	if st.Mean != 200*time.Millisecond {
		t.Fatalf("mean = %v", st.Mean)
	}
	if st.CV <= 0 || st.CV > 1 {
		t.Fatalf("CV = %v", st.CV)
	}
	empty, _ := newTestHB(t, 10)
	if _, ok := empty.IntervalStats(0); ok {
		t.Fatal("empty stats ok")
	}
}
