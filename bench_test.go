package repro

// Benchmark harness: one benchmark per table/figure of the paper plus
// ablations of its design choices (beat granularity with a file sink,
// controller window, scheduler policy, encoder ladder level). What a beat,
// a rate query or a file read costs is measured by hbbench (bench/).
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/hbfile"
	"repro/heartbeat"
	"repro/internal/experiments"
	"repro/internal/parsec"
	"repro/internal/video"
	"repro/internal/x264"
)

// ---------------------------------------------------------------- Table 2

// BenchmarkTable2Kernels measures one unit of each benchmark's real
// computation — the workload generators behind Table 2.
func BenchmarkTable2Kernels(b *testing.B) {
	for _, k := range parsec.Kernels() {
		k := k
		b.Run(k.Name(), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			var sink uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cs, _ := k.DoUnit(rng)
				sink ^= cs
			}
			benchSink = sink
		})
	}
}

var benchSink uint64

// BenchmarkTable2 regenerates the whole Table 2 simulation.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table2(experiments.Options{})
		if len(r.Table.Rows) != 10 {
			b.Fatal("short table")
		}
	}
}

// BenchmarkOverheadGranularity ablates beat granularity on real
// blackscholes work with the file-backed sink — the §5.1 study.
func BenchmarkOverheadGranularity(b *testing.B) {
	for _, bench := range []struct {
		name      string
		beatEvery int
	}{
		{"uninstrumented", 0},
		{"beat-per-option", 1},
		{"beat-per-25000", 25000},
	} {
		bench := bench
		b.Run(bench.name, func(b *testing.B) {
			var hb *heartbeat.Heartbeat
			if bench.beatEvery > 0 {
				w, err := hbfile.Create(filepath.Join(b.TempDir(), "o.hb"), 20, 1<<12)
				if err != nil {
					b.Fatal(err)
				}
				hb, err = heartbeat.New(20, heartbeat.WithSink(w))
				if err != nil {
					b.Fatal(err)
				}
				defer hb.Close()
			}
			k := parsec.NewBlackscholes()
			rng := rand.New(rand.NewSource(1))
			var sink uint64
			b.ResetTimer()
			for i := 1; i <= b.N; i++ {
				cs, _ := k.DoUnit(rng)
				sink ^= cs
				if bench.beatEvery > 0 && i%bench.beatEvery == 0 {
					hb.Beat()
				}
			}
			benchSink = sink
		})
	}
}

// ---------------------------------------------------------------- figures

// BenchmarkFigures regenerates each figure at a reduced scale (the same
// scale the test suite asserts shape criteria at). Seeds vary per
// iteration to defeat the fig3/fig4 shared-run memoization.
func BenchmarkFigures(b *testing.B) {
	for _, id := range []string{"fig2", "fig3", "fig5", "fig6", "fig7", "fig8", "multiapp", "dvfs"} {
		id := id
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt := experiments.Options{EncoderFrames: 120, Seed: int64(i)}
				r, err := experiments.Run(id, opt)
				if err != nil {
					b.Fatal(err)
				}
				if r.Series == nil || len(r.Series.X) == 0 {
					b.Fatal("empty series")
				}
			}
		})
	}
}

// BenchmarkEncoderLadder measures one encoded frame at each ladder level —
// the cost axis behind Figures 3 and 4 (knob ablation). The reported
// model-ops/frame metric is the simulated cost the figures are driven by;
// ns/op is the real host cost of the same work.
func BenchmarkEncoderLadder(b *testing.B) {
	prof := video.Uniform(video.Complexity{Motion: 2.5, Detail: 14, Noise: 3})
	for lvl, cfg := range x264.Ladder() {
		lvl, cfg := lvl, cfg
		b.Run(fmt.Sprintf("L%d", lvl), func(b *testing.B) {
			src := video.NewSource(160, 96, 1, prof)
			enc := x264.NewEncoder(cfg)
			f, _ := src.Next()
			if _, err := enc.Encode(f); err != nil { // intra warm-up
				b.Fatal(err)
			}
			var ops float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, _ := src.Next()
				st, err := enc.Encode(f)
				if err != nil {
					b.Fatal(err)
				}
				ops += st.Ops
			}
			b.ReportMetric(ops/float64(b.N), "model-ops/frame")
		})
	}
}

// BenchmarkSchedulerPolicy ablates the paper's threshold stepper against
// the PI and planner extensions on the Figure 5 workload, reporting
// beats-in-window.
func BenchmarkSchedulerPolicy(b *testing.B) {
	for _, policy := range []string{"stepper", "pi", "planner"} {
		policy := policy
		b.Run(policy, func(b *testing.B) {
			benchSched(b, parsec.BodytrackSched(), policy)
		})
	}
}

// BenchmarkControllerWindow ablates the observation window length on the
// Figure 5 workload: short windows react faster but judge on fewer beats.
func BenchmarkControllerWindow(b *testing.B) {
	for _, window := range []int{2, 5, 10, 20} {
		window := window
		b.Run(fmt.Sprintf("window-%d", window), func(b *testing.B) {
			w := parsec.BodytrackSched()
			w.Window = window
			w.CheckEvery = window
			benchSched(b, w, "stepper")
		})
	}
}

// benchSched runs one scheduling workload b.N times and reports how many
// beats landed inside the target window.
func benchSched(b *testing.B, w parsec.SchedWorkload, policy string) {
	var inWindow int
	for i := 0; i < b.N; i++ {
		run, err := experiments.RunSched(w, policy)
		if err != nil {
			b.Fatal(err)
		}
		inWindow = 0
		for _, beat := range run.Beats {
			if beat.OK && beat.Rate >= w.TargetMin && beat.Rate <= w.TargetMax {
				inWindow++
			}
		}
	}
	b.ReportMetric(float64(inWindow), "beats-in-window")
}
