package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/x264"
)

// quick is a scaled-down option set: encoder experiments run ~160 frames
// instead of 500-600, the overhead study prices 20000 options. Shape
// criteria are asserted at this scale; the full paper scale runs in
// cmd/hbexperiments.
var quick = Options{EncoderFrames: 160, OverheadUnits: 20000}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("nonesuch", quick); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable2ReproducesPaperRates(t *testing.T) {
	r := Table2(quick)
	if r.Table == nil || len(r.Table.Rows) != 10 {
		t.Fatalf("table2 = %+v", r.Table)
	}
	for _, row := range r.Table.Rows {
		paper, err1 := strconv.ParseFloat(row[2], 64)
		measured, err2 := strconv.ParseFloat(row[3], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparseable row %v", row)
		}
		rel := (measured - paper) / paper
		if rel < 0 {
			rel = -rel
		}
		if rel > 0.001 {
			t.Errorf("%s: measured %v vs paper %v (%.3f%%)", row[0], measured, paper, rel*100)
		}
	}
	// The table renders and serializes.
	var buf bytes.Buffer
	if err := r.Table.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "canneal") {
		t.Fatal("CSV missing rows")
	}
}

func TestOverheadShape(t *testing.T) {
	r := Overhead(quick)
	if r.Table == nil || len(r.Notes) == 0 {
		t.Fatalf("overhead: table %v, %d notes", r.Table != nil, len(r.Notes))
	}
	slowdown := func(row int) float64 {
		s := strings.TrimSuffix(r.Table.Rows[row][4], "x")
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad slowdown cell %q", r.Table.Rows[row][4])
		}
		return v
	}
	// Wall-clock measurements: assert with generous margins.
	if s := slowdown(0); s < 2 {
		t.Errorf("per-option slowdown %.2fx, want the paper's blow-up (>2x)", s)
	}
	if s := slowdown(1); s > 1.5 {
		t.Errorf("per-25000 slowdown %.2fx, want negligible (<1.5x)", s)
	}
	if s := slowdown(2); s > 1.5 {
		t.Errorf("facesim slowdown %.2fx, want small (<1.5x)", s)
	}
}

func TestFig2PhaseStructure(t *testing.T) {
	r := Fig2(quick)
	if r.Series == nil || len(r.Series.X) == 0 {
		t.Fatal("fig2 empty")
	}
	// Recover phase means from the series itself.
	frames := quick.EncoderFrames
	b1, b2 := frames/5, frames*2/3
	var outer, middle []float64
	for i, x := range r.Series.X {
		switch beat := int(x); {
		case beat <= b1:
			outer = append(outer, r.Series.Y[0][i])
		case beat > b1+20 && beat <= b2: // skip the window-lag transition
			middle = append(middle, r.Series.Y[0][i])
		case beat > b2+20:
			outer = append(outer, r.Series.Y[0][i])
		}
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, v := range xs {
			s += v
		}
		return s / float64(len(xs))
	}
	if len(middle) == 0 || len(outer) == 0 {
		t.Fatal("phases not populated")
	}
	mo, mm := mean(outer), mean(middle)
	if mm < 1.4*mo {
		t.Errorf("middle phase %.1f beats/s not clearly faster than outer %.1f (paper ~2x)", mm, mo)
	}
}

func TestFig3AdaptationShape(t *testing.T) {
	run := runAdaptive(quick)
	if run.crossedAt <= 0 {
		t.Fatal("adaptive encoder never reached the 30 beats/s goal")
	}
	final := run.rate[len(run.rate)-1]
	if final < 30 {
		t.Errorf("final rate %.1f < 30", final)
	}
	// The rate the first adaptation decision saw must be far below target
	// (the paper's 8.8 anchor).
	initial := run.rate[run.firstCheck-1]
	if initial > 15 {
		t.Errorf("initial rate %.1f, want the demanding-input anchor (<15)", initial)
	}
	if run.finalCfg.Search != x264.Diamond {
		t.Errorf("final config %v, want diamond search (paper narrative)", run.finalCfg)
	}
	if run.finalCfg.Subpartitions {
		t.Error("final config still uses sub-partitions")
	}
	// The climb is monotone-ish: the level sequence never moves toward
	// quality (the paper's encoder only sheds work).
	for i := 1; i < len(run.level); i++ {
		if run.level[i] < run.level[i-1] {
			t.Fatalf("ladder moved up at frame %d", i)
		}
	}
}

func TestFig4QualityCost(t *testing.T) {
	r := Fig4(quick)
	var sum, worst float64
	n := 0
	for _, d := range r.Series.Y[0] {
		sum += d
		if d < worst {
			worst = d
		}
		n++
	}
	mean := sum / float64(n)
	if mean > -0.02 {
		t.Errorf("mean PSNR diff %.3f dB: adaptation should cost some quality", mean)
	}
	if mean < -1.2 {
		t.Errorf("mean PSNR diff %.3f dB: too costly (paper ~-0.5)", mean)
	}
	if worst < -2.5 {
		t.Errorf("worst PSNR diff %.2f dB: too costly (paper ~-1)", worst)
	}
}

func seriesCol(t *testing.T, r Result, name string) []float64 {
	t.Helper()
	for c, col := range r.Series.Cols {
		if col == name {
			return r.Series.Y[c]
		}
	}
	t.Fatalf("%s: no column %q", r.ID, name)
	return nil
}

func TestFig5BodytrackShape(t *testing.T) {
	r := Fig5(quick)
	rates := seriesCol(t, r, "rate")
	cores := seriesCol(t, r, "cores")
	// Peak allocation reaches all 8 cores during the bump.
	peak := 0.0
	for _, c := range cores {
		if c > peak {
			peak = c
		}
	}
	if peak != 8 {
		t.Errorf("peak cores = %v, want 8", peak)
	}
	// Final: reclaimed to one core with the rate back inside the window.
	last := len(cores) - 1
	if cores[last] != 1 {
		t.Errorf("final cores = %v, want 1", cores[last])
	}
	if rates[last] < 2.5 || rates[last] > 3.5 {
		t.Errorf("final rate = %.2f, want inside [2.5, 3.5]", rates[last])
	}
	// Seven cores were enough before the bump: allocation at beat 90.
	if c := cores[89]; c != 7 {
		t.Errorf("cores at beat 90 = %v, want 7", c)
	}
}

func TestFig6StreamclusterShape(t *testing.T) {
	r := Fig6(quick)
	rates := seriesCol(t, r, "rate")
	// In-window by beat 30 and held to the end.
	for beat := 30; beat <= len(rates); beat++ {
		if rates[beat-1] < 0.45 || rates[beat-1] > 0.60 {
			t.Fatalf("rate %.3f at beat %d escaped the (slightly padded) window", rates[beat-1], beat)
		}
	}
}

func TestFig7X264Shape(t *testing.T) {
	r := Fig7(quick)
	rates := seriesCol(t, r, "rate")
	cores := seriesCol(t, r, "cores")
	peakRate := 0.0
	for _, v := range rates {
		if v > peakRate {
			peakRate = v
		}
	}
	if peakRate < 45 {
		t.Errorf("peak rate %.1f, want the paper's >45 spikes", peakRate)
	}
	// Steady-state allocation is mid-size (paper: 4-6 cores).
	last := len(cores) - 1
	if cores[last] < 3 || cores[last] > 6 {
		t.Errorf("final cores = %v, want 3-6", cores[last])
	}
	// Post-warmup, rate stays in a loose band around the window.
	for beat := 100; beat <= len(rates); beat++ {
		if rates[beat-1] < 20 || rates[beat-1] > 50 {
			t.Fatalf("rate %.1f at beat %d far outside plausible band", rates[beat-1], beat)
		}
	}
}

func TestFig8FaultToleranceShape(t *testing.T) {
	r := Fig8(quick)
	healthy := seriesCol(t, r, "healthy")
	unhealthy := seriesCol(t, r, "unhealthy")
	adaptive := seriesCol(t, r, "adaptive")
	last := len(healthy) - 1
	minTail := func(xs []float64) float64 {
		m := xs[len(xs)/2]
		for _, v := range xs[len(xs)/2:] {
			if v < m {
				m = v
			}
		}
		return m
	}
	// Unhealthy collapses well below the healthy baseline after failures.
	if mu := minTail(unhealthy); mu >= 27 {
		t.Errorf("unhealthy min tail rate %.1f, want a collapse (<27)", mu)
	}
	// Adaptive ends at/above target while unhealthy does not.
	if adaptive[last] < 30 {
		t.Errorf("adaptive final rate %.1f < 30", adaptive[last])
	}
	if unhealthy[last] >= 30 {
		t.Errorf("unhealthy final rate %.1f >= 30; faults had no bite", unhealthy[last])
	}
	if healthy[last] < 30 {
		t.Errorf("healthy final rate %.1f < 30", healthy[last])
	}
	// Adaptive strictly dominates unhealthy at the end.
	if adaptive[last] <= unhealthy[last] {
		t.Errorf("adaptive %.1f not above unhealthy %.1f", adaptive[last], unhealthy[last])
	}
}
