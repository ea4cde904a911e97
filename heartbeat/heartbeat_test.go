package heartbeat_test

import (
	"testing"
	"time"

	"repro/heartbeat"
	"repro/sim"
)

// newTestHB returns a heartbeat on a manual clock.
func newTestHB(t *testing.T, window int, opts ...heartbeat.Option) (*heartbeat.Heartbeat, *sim.Clock) {
	t.Helper()
	clk := sim.NewClock(time.Time{})
	hb, err := heartbeat.New(window, append(opts, heartbeat.WithClock(clk))...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return hb, clk
}

func TestNewValidation(t *testing.T) {
	if _, err := heartbeat.New(-1); err == nil {
		t.Fatal("negative window accepted")
	}
	hb, err := heartbeat.New(0)
	if err != nil {
		t.Fatalf("New(0): %v", err)
	}
	if hb.Window() != 20 {
		t.Fatalf("Window = %d, want the default 20", hb.Window())
	}
	if _, err := heartbeat.New(10, heartbeat.WithClock(nil)); err == nil {
		t.Fatal("nil clock accepted")
	}
}

func TestCapacityDefaultsAndClamping(t *testing.T) {
	hb, err := heartbeat.New(100)
	if err != nil {
		t.Fatal(err)
	}
	if hb.Capacity() != 400 {
		t.Fatalf("Capacity = %d, want 4*window = 400", hb.Capacity())
	}
	hb2, err := heartbeat.New(100, heartbeat.WithCapacity(10))
	if err != nil {
		t.Fatal(err)
	}
	if hb2.Capacity() < 100 {
		t.Fatalf("Capacity = %d, must be >= window", hb2.Capacity())
	}
}

func TestBeatCountAndHistory(t *testing.T) {
	hb, clk := newTestHB(t, 5)
	for i := 0; i < 3; i++ {
		hb.BeatTag(int64(100 + i))
		clk.Advance(10 * time.Millisecond)
	}
	if hb.Count() != 3 {
		t.Fatalf("Count = %d, want 3", hb.Count())
	}
	recs := hb.History(10)
	if len(recs) != 3 {
		t.Fatalf("History = %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d Seq = %d, want %d", i, r.Seq, i+1)
		}
		if r.Tag != int64(100+i) {
			t.Errorf("record %d Tag = %d, want %d", i, r.Tag, 100+i)
		}
		if r.Producer != 0 {
			t.Errorf("record %d Producer = %d, want 0", i, r.Producer)
		}
	}
	if !recs[1].Time.After(recs[0].Time) {
		t.Error("timestamps not increasing under advancing clock")
	}
}

func TestRateExactOnManualClock(t *testing.T) {
	hb, clk := newTestHB(t, 10)
	if _, ok := hb.Rate(0); ok {
		t.Fatal("Rate reported ok with no beats")
	}
	hb.Beat()
	if _, ok := hb.Rate(0); ok {
		t.Fatal("Rate reported ok with one beat")
	}
	// 10 beats spaced 100ms apart: 9 intervals over 0.9s = 10 beats/s.
	for i := 0; i < 9; i++ {
		clk.Advance(100 * time.Millisecond)
		hb.Beat()
	}
	r, ok := hb.Rate(0)
	if !ok {
		t.Fatal("Rate not ok after 10 beats")
	}
	if r < 9.999 || r > 10.001 {
		t.Fatalf("Rate = %v, want 10", r)
	}
	d, ok := hb.RateDetail(0)
	if !ok || d.Beats != 10 || d.Span != 900*time.Millisecond {
		t.Fatalf("RateDetail = %+v", d)
	}
	if d.FirstSeq != 1 || d.LastSeq != 10 {
		t.Fatalf("window endpoints = [%d, %d], want [1, 10]", d.FirstSeq, d.LastSeq)
	}
}

func TestRateWindowSelection(t *testing.T) {
	hb, clk := newTestHB(t, 4)
	// First 5 beats slow (1s apart), next 5 fast (100ms apart).
	for i := 0; i < 5; i++ {
		hb.Beat()
		clk.Advance(time.Second)
	}
	for i := 0; i < 5; i++ {
		clk.Advance(100 * time.Millisecond)
		hb.Beat()
	}
	// Default window (4) sees only fast beats: 10 beats/s.
	r, ok := hb.Rate(0)
	if !ok || r < 9.9 || r > 10.1 {
		t.Fatalf("Rate(default) = %v, want ~10", r)
	}
	// A wide window mixes the two phases and must be slower.
	wide, ok := hb.Rate(10)
	if !ok || wide >= r {
		t.Fatalf("Rate(10) = %v, want < %v", wide, r)
	}
}

func TestWindowClippedToCapacity(t *testing.T) {
	hb, clk := newTestHB(t, 4, heartbeat.WithCapacity(8))
	for i := 0; i < 100; i++ {
		clk.Advance(10 * time.Millisecond)
		hb.Beat()
	}
	d, ok := hb.RateDetail(1000) // paper: silently clipped
	if !ok {
		t.Fatal("RateDetail not ok")
	}
	if d.Beats != 8 {
		t.Fatalf("clipped window used %d beats, want capacity 8", d.Beats)
	}
}

func TestHistoryClipsAndOrders(t *testing.T) {
	hb, clk := newTestHB(t, 4, heartbeat.WithCapacity(16))
	for i := 0; i < 40; i++ {
		clk.Advance(time.Millisecond)
		hb.BeatTag(int64(i))
	}
	recs := hb.History(1000)
	if len(recs) != 16 {
		t.Fatalf("History(1000) = %d records, want 16", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("history not dense at %d: %d then %d", i, recs[i-1].Seq, recs[i].Seq)
		}
	}
	if recs[len(recs)-1].Seq != 40 {
		t.Fatalf("newest Seq = %d, want 40", recs[len(recs)-1].Seq)
	}
	if hb.History(0) != nil {
		t.Fatal("History(0) should be nil")
	}
}

func TestTargets(t *testing.T) {
	hb, _ := newTestHB(t, 5)
	if _, _, ok := hb.Target(); ok {
		t.Fatal("Target ok before SetTarget")
	}
	if err := hb.SetTarget(30, 35); err != nil {
		t.Fatal(err)
	}
	min, max, ok := hb.Target()
	if !ok || min != 30 || max != 35 {
		t.Fatalf("Target = %v, %v, %v", min, max, ok)
	}
	for _, bad := range [][2]float64{{-1, 5}, {5, 4}} {
		if err := hb.SetTarget(bad[0], bad[1]); err == nil {
			t.Errorf("SetTarget(%v, %v) accepted", bad[0], bad[1])
		}
	}
	// Failed SetTarget must not clobber the previous goal.
	min, max, ok = hb.Target()
	if !ok || min != 30 || max != 35 {
		t.Fatalf("Target after bad set = %v, %v, %v", min, max, ok)
	}
}

func TestLockedStoreVariantBehavesIdentically(t *testing.T) {
	for _, locked := range []bool{false, true} {
		opts := []heartbeat.Option{}
		if locked {
			opts = append(opts, heartbeat.WithLockedStore())
		}
		hb, clk := newTestHB(t, 5, opts...)
		for i := 0; i < 20; i++ {
			clk.Advance(50 * time.Millisecond)
			hb.BeatTag(int64(i))
		}
		r, ok := hb.Rate(0)
		if !ok || r < 19.99 || r > 20.01 {
			t.Fatalf("locked=%v: Rate = %v, want 20", locked, r)
		}
		if hb.Count() != 20 {
			t.Fatalf("locked=%v: Count = %d", locked, hb.Count())
		}
		recs := hb.History(5)
		if len(recs) != 5 || recs[4].Tag != 19 {
			t.Fatalf("locked=%v: History = %+v", locked, recs)
		}
	}
}

func TestIntervals(t *testing.T) {
	hb, clk := newTestHB(t, 5)
	gaps := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 50 * time.Millisecond}
	hb.Beat()
	for _, g := range gaps {
		clk.Advance(g)
		hb.Beat()
	}
	iv := heartbeat.Intervals(hb.History(10))
	if len(iv) != 3 {
		t.Fatalf("Intervals = %v", iv)
	}
	want := []float64{0.1, 0.2, 0.05}
	for i := range want {
		if diff := iv[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("interval %d = %v, want %v", i, iv[i], want[i])
		}
	}
	if heartbeat.Intervals(nil) != nil {
		t.Fatal("Intervals(nil) should be nil")
	}
}

// Records sharing a stamp are read as evenly spread over the time to the
// next stamp, so a steady heartbeat on reused stamps does not look erratic.
func TestIntervalsSpreadRunsOfEqualStamps(t *testing.T) {
	at := func(ms ...int64) (recs []heartbeat.Record) {
		for i, m := range ms {
			recs = append(recs, heartbeat.Record{Seq: uint64(i + 1), Time: time.Unix(0, m*int64(time.Millisecond))})
		}
		return recs
	}
	for _, tc := range []struct {
		name string
		recs []heartbeat.Record
		want []float64
	}{
		{"distinct stamps are untouched", at(0, 100, 300), []float64{0.1, 0.2}},
		{"a run of three then a gap", at(0, 0, 0, 300, 400), []float64{0.1, 0.1, 0.1, 0.1}},
		{"a trailing run contributes nothing", at(0, 100, 100, 100), []float64{0.1}},
		{"one stamp throughout", at(5, 5, 5), nil},
		{"a backward stamp clamps the whole run to zero", at(100, 100, 50, 150), []float64{0, 0, 0.1}},
	} {
		got := heartbeat.Intervals(tc.recs)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: Intervals = %v, want %v", tc.name, got, tc.want)
		}
		for i := range got {
			if diff := got[i] - tc.want[i]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s: Intervals = %v, want %v", tc.name, got, tc.want)
			}
		}
	}
	// Ten beats per reading, readings steady: CV 0 rather than 3.
	hb, clk := newTestHB(t, 100, heartbeat.WithCapacity(128))
	for i := 0; i < 100; i++ {
		if i > 0 && i%10 == 0 {
			clk.Advance(time.Microsecond)
		}
		hb.Beat()
	}
	if st, ok := hb.IntervalStats(100); !ok || st.CV > 1e-9 {
		t.Fatalf("steady reused stamps: stats %+v, ok %v", st, ok)
	}
}

func TestCloseIdempotent(t *testing.T) {
	hb, _ := newTestHB(t, 5)
	if err := hb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := hb.Close(); err != nil {
		t.Fatal(err)
	}
}
