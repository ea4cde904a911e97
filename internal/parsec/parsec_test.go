package parsec

import (
	"math/rand"
	"testing"

	"repro/clock"
	"repro/sim"
)

func TestKernelsAllPresent(t *testing.T) {
	ks := Kernels()
	if len(ks) != 10 {
		t.Fatalf("Kernels() = %d kernels, want 10", len(ks))
	}
	want := []string{
		"blackscholes", "bodytrack", "canneal", "dedup", "facesim",
		"ferret", "fluidanimate", "streamcluster", "swaptions", "x264",
	}
	for i, k := range ks {
		if k.Name() != want[i] {
			t.Errorf("kernel %d = %q, want %q", i, k.Name(), want[i])
		}
		if k.UnitsPerBeat() <= 0 {
			t.Errorf("%s: UnitsPerBeat = %d", k.Name(), k.UnitsPerBeat())
		}
		if k.BeatLabel() == "" {
			t.Errorf("%s: empty BeatLabel", k.Name())
		}
	}
}

func TestByName(t *testing.T) {
	k, ok := ByName("canneal")
	if !ok || k.Name() != "canneal" {
		t.Fatalf("ByName(canneal) = %v, %v", k, ok)
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Fatal("ByName(nonesuch) found something")
	}
}

// Every kernel must do real, non-trivial work: positive op counts and
// checksums that vary across units (constant checksums would suggest the
// computation is degenerate or elided).
func TestKernelsProduceWork(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			seen := make(map[uint64]bool)
			var totalOps float64
			const units = 20
			for i := 0; i < units; i++ {
				cs, ops := k.DoUnit(rng)
				if ops <= 0 {
					t.Fatalf("unit %d: ops = %v", i, ops)
				}
				totalOps += ops
				seen[cs] = true
			}
			if len(seen) < units/2 {
				t.Fatalf("only %d distinct checksums in %d units", len(seen), units)
			}
			if totalOps < 100 {
				t.Fatalf("suspiciously little work: %v ops", totalOps)
			}
		})
	}
}

// Kernels must be deterministic given the same seed (required for
// reproducible benchmarks).
func TestKernelsDeterministic(t *testing.T) {
	for _, name := range []string{"blackscholes", "bodytrack", "canneal", "dedup", "facesim", "ferret", "fluidanimate", "streamcluster", "swaptions", "x264"} {
		name := name
		t.Run(name, func(t *testing.T) {
			k1, _ := ByName(name)
			k2, _ := ByName(name)
			r1 := rand.New(rand.NewSource(7))
			r2 := rand.New(rand.NewSource(7))
			for i := 0; i < 10; i++ {
				c1, o1 := k1.DoUnit(r1)
				c2, o2 := k2.DoUnit(r2)
				if c1 != c2 || o1 != o2 {
					t.Fatalf("unit %d diverged: (%x, %v) vs (%x, %v)", i, c1, o1, c2, o2)
				}
			}
		})
	}
}

func TestProfilesMatchTable2(t *testing.T) {
	ps := Profiles()
	if len(ps) != 10 {
		t.Fatalf("%d profiles, want 10", len(ps))
	}
	// Spot-check the paper's values.
	want := map[string]float64{
		"blackscholes":  561.03,
		"bodytrack":     4.31,
		"canneal":       1043.76,
		"dedup":         264.30,
		"facesim":       0.72,
		"ferret":        40.78,
		"fluidanimate":  41.25,
		"streamcluster": 0.02,
		"swaptions":     2.27,
		"x264":          11.32,
	}
	for _, p := range ps {
		if want[p.Name] != p.PaperRate {
			t.Errorf("%s: PaperRate = %v, want %v", p.Name, p.PaperRate, want[p.Name])
		}
		if p.ParallelFrac <= 0 || p.ParallelFrac > 1 {
			t.Errorf("%s: ParallelFrac = %v", p.Name, p.ParallelFrac)
		}
		if p.Beats <= 0 {
			t.Errorf("%s: Beats = %d", p.Name, p.Beats)
		}
		// A kernel exists for every profile.
		if _, ok := ByName(p.Name); !ok {
			t.Errorf("%s: no kernel", p.Name)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("facesim")
	if err != nil || p.PaperRate != 0.72 {
		t.Fatalf("ProfileByName(facesim) = %+v, %v", p, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// Calibration identity: executing one calibrated beat of work on the
// reference machine must take exactly 1/PaperRate seconds.
func TestOpsPerBeatCalibration(t *testing.T) {
	const coreRate = 1e9
	for _, p := range Profiles() {
		clk := clock.NewVirtual()
		m := sim.NewMachine(clk, 8, coreRate)
		start := clk.Now()
		m.Execute(p.Work(coreRate, 8))
		got := clk.Now().Sub(start).Seconds()
		want := 1 / p.PaperRate
		// The clock quantizes to nanoseconds, so allow ppm-level error.
		if rel := (got - want) / want; rel > 1e-6 || rel < -1e-6 {
			t.Errorf("%s: beat took %vs, want %vs", p.Name, got, want)
		}
	}
}

func TestSchedWorkloadShapes(t *testing.T) {
	for _, w := range SchedWorkloads() {
		if w.TargetMin >= w.TargetMax {
			t.Errorf("%s: window [%v, %v]", w.Name, w.TargetMin, w.TargetMax)
		}
		if w.Beats <= 0 || w.CheckEvery <= 0 || w.Window <= 0 {
			t.Errorf("%s: beats=%d check=%d window=%d", w.Name, w.Beats, w.CheckEvery, w.Window)
		}
		for beat := 1; beat <= w.Beats; beat++ {
			if s := w.Shape(beat); s <= 0 {
				t.Fatalf("%s: shape(%d) = %v", w.Name, beat, s)
			}
		}
	}
}

// The achievable-rate geometry behind each scheduling figure: some core
// count must satisfy the target window on the nominal load.
func TestSchedWorkloadsAchievable(t *testing.T) {
	for _, w := range SchedWorkloads() {
		achievable := false
		for c := 1; c <= 8; c++ {
			r := w.BaseRate * sim.Speedup(c, w.ParallelFrac)
			if r >= w.TargetMin && r <= w.TargetMax {
				achievable = true
				break
			}
		}
		if !achievable {
			t.Errorf("%s: no core count meets [%v, %v]", w.Name, w.TargetMin, w.TargetMax)
		}
	}
}

// Figure 5's specific geometry: seven cores needed initially, eight after
// the bump, one core after the drop.
func TestBodytrackGeometry(t *testing.T) {
	w := BodytrackSched()
	rate := func(c int, shape float64) float64 {
		return w.BaseRate * sim.Speedup(c, w.ParallelFrac) / shape
	}
	if r := rate(6, 1); r >= w.TargetMin {
		t.Errorf("6 cores already meet the target (%v); paper needs 7", r)
	}
	if r := rate(7, 1); r < w.TargetMin || r > w.TargetMax {
		t.Errorf("7 cores rate %v outside window", r)
	}
	if r := rate(7, 1.17); r >= w.TargetMin {
		t.Errorf("7 cores under bump rate %v should dip below window", r)
	}
	if r := rate(8, 1.17); r < w.TargetMin || r > w.TargetMax {
		t.Errorf("8 cores under bump rate %v outside window", r)
	}
	if r := rate(1, 0.16); r < w.TargetMin || r > w.TargetMax {
		t.Errorf("1 core under light load rate %v outside window", r)
	}
}
