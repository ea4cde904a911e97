package heartbeat_test

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/clock"
	"repro/heartbeat"
)

// Property: for any positive gap sequence, the reported rate over the full
// window equals (n-1)/sum(gaps) — the definition in §3 of the paper —
// and Intervals reproduces the gaps exactly.
func TestRateMatchesDefinitionProperty(t *testing.T) {
	f := func(gapsRaw []uint16) bool {
		if len(gapsRaw) == 0 || len(gapsRaw) > 200 {
			return true
		}
		clk := clock.NewVirtual()
		hb, err := heartbeat.New(2, heartbeat.WithCapacity(256), heartbeat.WithClock(clk))
		if err != nil {
			return false
		}
		hb.Beat()
		var total float64
		for _, g := range gapsRaw {
			gap := time.Duration(g)*time.Millisecond + time.Millisecond
			total += gap.Seconds()
			clk.Advance(gap)
			hb.Beat()
		}
		want := float64(len(gapsRaw)) / total
		got, ok := hb.Rate(len(gapsRaw) + 1)
		if !ok {
			return false
		}
		if math.Abs(got-want)/want > 1e-6 {
			return false
		}
		iv := heartbeat.Intervals(hb.History(256))
		if len(iv) != len(gapsRaw) {
			return false
		}
		var ivSum float64
		for _, v := range iv {
			ivSum += v
		}
		return math.Abs(ivSum-total)/total < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: widening the window can only incorporate older (or equal)
// first-records: FirstSeq is non-increasing and Beats non-decreasing in
// the window size.
func TestWindowMonotonicityProperty(t *testing.T) {
	clk := clock.NewVirtual()
	hb, err := heartbeat.New(2, heartbeat.WithCapacity(128), heartbeat.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		clk.Advance(time.Duration(10+i%7) * time.Millisecond)
		hb.Beat()
	}
	f := func(aRaw, bRaw uint8) bool {
		a := int(aRaw)%120 + 2
		b := int(bRaw)%120 + 2
		if a > b {
			a, b = b, a
		}
		ra, okA := hb.RateDetail(a)
		rb, okB := hb.RateDetail(b)
		if !okA || !okB {
			return false
		}
		return rb.FirstSeq <= ra.FirstSeq && rb.Beats >= ra.Beats && ra.LastSeq == rb.LastSeq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
