package repro

// Benchmark harness: one benchmark per table/figure of the paper plus
// ablations of the design choices called out in DESIGN.md (lock-free vs
// locked history, beat granularity, file write-through, controller window,
// scheduler policy, encoder ladder level).
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/control"
	"repro/hbfile"
	"repro/heartbeat"
	"repro/internal/experiments"
	"repro/internal/parsec"
	"repro/internal/video"
	"repro/internal/x264"
	"repro/observer"
	"repro/scheduler"
	"repro/sim"
)

// ---------------------------------------------------------------- core API

// BenchmarkBeat ablates the global-history locking strategy: the default
// lock-free seqlock ring against the paper-style mutex-guarded ring.
func BenchmarkBeat(b *testing.B) {
	for _, variant := range []struct {
		name string
		opts []heartbeat.Option
	}{
		{"lockfree", nil},
		{"locked", []heartbeat.Option{heartbeat.WithLockedStore()}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			hb, err := heartbeat.New(20, append(variant.opts, heartbeat.WithCapacity(1<<12))...)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hb.Beat()
			}
		})
		b.Run(variant.name+"-parallel", func(b *testing.B) {
			hb, err := heartbeat.New(20, append(variant.opts, heartbeat.WithCapacity(1<<12))...)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					hb.Beat()
				}
			})
		})
	}
}

// BenchmarkHeartbeatParallel measures contended beat registration at 1, 4
// and 8 goroutines: the sharded per-thread hot path (each goroutine owns a
// Thread and beats through its lock-free shard) against the seed's mutex
// path (every goroutine funnels through the locked global store). Each pair
// runs on the default wall clock and on the cached CoarseClock, since at
// contended beat rates the vdso clock read is itself a serial bottleneck.
func BenchmarkHeartbeatParallel(b *testing.B) {
	type variant struct {
		name    string
		locked  bool // seed mutex path: hb.Beat through the locked store
		coarse  bool
		sharded bool // per-goroutine Thread.GlobalBeat through shards
	}
	variants := []variant{
		{name: "seed-mutex", locked: true},
		{name: "seed-mutex-coarse", locked: true, coarse: true},
		{name: "sharded", sharded: true},
		{name: "sharded-coarse", sharded: true, coarse: true},
	}
	for _, procs := range []int{1, 4, 8} {
		for _, v := range variants {
			v := v
			b.Run(fmt.Sprintf("%s-%dg", v.name, procs), func(b *testing.B) {
				opts := []heartbeat.Option{
					heartbeat.WithCapacity(256),
					heartbeat.WithShardCapacity(1 << 15),
				}
				if v.locked {
					opts = append(opts, heartbeat.WithLockedStore())
				}
				if v.coarse {
					clk := heartbeat.NewCoarseClock(100 * time.Microsecond)
					defer clk.Stop()
					opts = append(opts, heartbeat.WithClock(clk))
				}
				hb, err := heartbeat.New(20, opts...)
				if err != nil {
					b.Fatal(err)
				}
				beat := make([]func(), procs)
				for g := 0; g < procs; g++ {
					if v.sharded {
						tr := hb.Thread("bench")
						beat[g] = tr.GlobalBeat
					} else {
						beat[g] = hb.Beat
					}
				}
				n := b.N / procs
				if n == 0 {
					n = 1
				}
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < procs; g++ {
					wg.Add(1)
					go func(beat func()) {
						defer wg.Done()
						for i := 0; i < n; i++ {
							beat()
						}
					}(beat[g])
				}
				wg.Wait()
			})
		}
	}
}

// BenchmarkBeatFileSink measures the reference-implementation behaviour:
// every heartbeat written through to the observation file.
func BenchmarkBeatFileSink(b *testing.B) {
	w, err := hbfile.Create(filepath.Join(b.TempDir(), "bench.hb"), 20, 1<<12)
	if err != nil {
		b.Fatal(err)
	}
	hb, err := heartbeat.New(20, heartbeat.WithCapacity(1<<12), heartbeat.WithSink(w))
	if err != nil {
		b.Fatal(err)
	}
	defer hb.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hb.Beat()
	}
	if err := hb.SinkErr(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkThreadBeat measures per-thread (local) heartbeats.
func BenchmarkThreadBeat(b *testing.B) {
	hb, err := heartbeat.New(20)
	if err != nil {
		b.Fatal(err)
	}
	tr := hb.Thread("bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Beat()
	}
}

// BenchmarkRate measures windowed rate queries while the history is full.
func BenchmarkRate(b *testing.B) {
	hb, err := heartbeat.New(20, heartbeat.WithCapacity(1<<12))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1<<12; i++ {
		hb.Beat()
	}
	for _, window := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("window-%d", window), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := hb.Rate(window); !ok {
					b.Fatal("rate not available")
				}
			}
		})
	}
}

// BenchmarkRateUnderWriters measures observer reads racing live producers —
// the concurrent path the seqlock design exists for.
func BenchmarkRateUnderWriters(b *testing.B) {
	hb, err := heartbeat.New(20, heartbeat.WithCapacity(1<<10))
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				hb.Beat()
			}
		}
	}()
	for {
		if _, ok := hb.Rate(100); ok {
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hb.Rate(100)
	}
}

// BenchmarkHBFileRead measures an external observer reading the ring file.
func BenchmarkHBFileRead(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.hb")
	w, err := hbfile.Create(path, 20, 1<<10)
	if err != nil {
		b.Fatal(err)
	}
	base := time.Unix(0, 0)
	for i := uint64(1); i <= 1<<10; i++ {
		if err := w.WriteRecord(heartbeat.Record{Seq: i, Time: base.Add(time.Duration(i) * time.Millisecond)}); err != nil {
			b.Fatal(err)
		}
	}
	r, err := hbfile.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.Rate(100); err != nil {
			b.Fatal(err)
		}
	}
}

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
// the PI extension on the Figure 5 workload, reporting beats-in-window.
func BenchmarkSchedulerPolicy(b *testing.B) {
	w := parsec.BodytrackSched()
	mkPolicy := map[string]func() scheduler.Policy{
		"stepper": func() scheduler.Policy {
			return scheduler.StepperPolicy{Stepper: &control.Stepper{TargetMin: w.TargetMin, TargetMax: w.TargetMax}}
		},
		"pi": func() scheduler.Policy {
			set := (w.TargetMin + w.TargetMax) / 2
			return scheduler.PIPolicy{
				PI: &control.PI{Kp: 0.5 / set, Ki: 1.5 / set, Setpoint: set, MinOutput: 1, MaxOutput: 8},
				Dt: float64(w.CheckEvery) / set,
			}
		},
		"planner": func() scheduler.Policy {
			return &control.AmdahlPlanner{ParallelFrac: w.ParallelFrac, TargetMin: w.TargetMin, TargetMax: w.TargetMax}
		},
	}
	for _, name := range []string{"stepper", "pi", "planner"} {
		name := name
		b.Run(name, func(b *testing.B) {
			var inWindow int
			for i := 0; i < b.N; i++ {
				inWindow = runSchedBench(b, w, mkPolicy[name]())
			}
			b.ReportMetric(float64(inWindow), "beats-in-window")
		})
	}
}

// BenchmarkControllerWindow ablates the observation window length on the
// Figure 5 workload: short windows react faster but judge on fewer beats.
func BenchmarkControllerWindow(b *testing.B) {
	base := parsec.BodytrackSched()
	for _, window := range []int{2, 5, 10, 20} {
		window := window
		b.Run(fmt.Sprintf("window-%d", window), func(b *testing.B) {
			w := base
			w.Window = window
			w.CheckEvery = window
			var inWindow int
			for i := 0; i < b.N; i++ {
				inWindow = runSchedBench(b, w,
					scheduler.StepperPolicy{Stepper: &control.Stepper{TargetMin: w.TargetMin, TargetMax: w.TargetMax}})
			}
			b.ReportMetric(float64(inWindow), "beats-in-window")
		})
	}
}

// runSchedBench runs one scheduling workload and returns how many beats
// landed inside the target window.
func runSchedBench(b *testing.B, w parsec.SchedWorkload, pol scheduler.Policy) int {
	b.Helper()
	const coreRate = 1e9
	clk := sim.NewClock(sim.Epoch)
	m := sim.NewMachine(clk, 8, coreRate)
	hb, err := heartbeat.New(w.Window, heartbeat.WithClock(clk))
	if err != nil {
		b.Fatal(err)
	}
	if err := hb.SetTarget(w.TargetMin, w.TargetMax); err != nil {
		b.Fatal(err)
	}
	m.SetCores(1)
	sched, err := scheduler.New(observer.HeartbeatStream(hb), m, pol, scheduler.WithWindow(w.Window))
	if err != nil {
		b.Fatal(err)
	}
	defer sched.Close()
	inWindow := 0
	for beat := 1; beat <= w.Beats; beat++ {
		m.Execute(w.Work(coreRate, beat))
		hb.Beat()
		if rate, ok := hb.Rate(0); ok && rate >= w.TargetMin && rate <= w.TargetMax {
			inWindow++
		}
		if beat%w.CheckEvery == 0 {
			if _, err := sched.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	return inWindow
}
