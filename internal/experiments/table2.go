package experiments

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/clock"
	"repro/hbfile"
	"repro/heartbeat"
	"repro/internal/parsec"
	"repro/internal/plot"
	"repro/sim"
)

// refCoreRate is the per-core op rate of the simulated reference machine.
const refCoreRate = 1e9

// Table2 reproduces Table 2: the average heart rate of each instrumented
// PARSEC benchmark running its native input on the eight-core reference
// platform. Per-beat costs are calibrated from the paper's measured rates
// (see parsec.Profile.OpsPerBeat); the experiment then validates that the
// whole pipeline — work execution, heartbeat registration, windowed rate
// measurement — reports those rates back through the Heartbeats API.
func Table2(opt Options) Result {
	table := &plot.Table{
		Title:  "Table 2: Heartbeats in the PARSEC Benchmark Suite (simulated 8-core reference machine)",
		Header: []string{"Benchmark", "Heartbeat Location", "Paper beats/s", "Measured beats/s", "Rel err"},
	}
	notes := []string{}
	worst := 0.0
	for _, p := range parsec.Profiles() {
		clk := clock.NewVirtual()
		m := sim.NewMachine(clk, 8, refCoreRate)
		hb, err := heartbeat.New(20, heartbeat.WithClock(clk), heartbeat.WithCapacity(p.Beats+1))
		if err != nil {
			panic(err)
		}
		start := clk.Now()
		for b := 0; b < p.Beats; b++ {
			m.Execute(p.Work(refCoreRate, 8))
			hb.Beat()
		}
		// Whole-run average, as the paper reports.
		measured := float64(p.Beats) / clk.Now().Sub(start).Seconds()
		rel := (measured - p.PaperRate) / p.PaperRate
		if rel < 0 {
			rel = -rel
		}
		if rel > worst {
			worst = rel
		}
		table.Rows = append(table.Rows, []string{
			p.Name, p.BeatLabel,
			fmt.Sprintf("%.2f", p.PaperRate),
			fmt.Sprintf("%.2f", measured),
			fmt.Sprintf("%.2f%%", rel*100),
		})
	}
	notes = append(notes,
		fmt.Sprintf("worst relative error across 10 benchmarks: %.3f%%", worst*100),
		"rate spread spans ~52000x (streamcluster 0.02/s to canneal 1043.76/s), as in the paper")
	return Result{ID: "table2", Title: table.Title, Table: table, Notes: notes}
}

// Overhead reproduces the §5.1 instrumentation-overhead findings with real
// computation and the file-backed reference-style heartbeat sink:
//
//   - blackscholes with a heartbeat per option slows down by an order of
//     magnitude, because the heartbeat file write dwarfs one option's work;
//   - a heartbeat every 25000 options has negligible overhead;
//   - facesim (a heartbeat per frame, frames are expensive) stays under 5%.
func Overhead(opt Options) Result {
	units := opt.overheadUnits()
	dir, err := os.MkdirTemp("", "hb-overhead")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	bs := parsec.NewBlackscholes()
	base := timeKernel(bs, units, 0, "")
	perOption := timeKernel(bs, units, 1, filepath.Join(dir, "bs1.hb"))
	per25000 := timeKernel(bs, units, 25000, filepath.Join(dir, "bs25000.hb"))

	fsFrames := 200
	fs := parsec.NewFacesim()
	fsBase := timeKernel(fs, fsFrames, 0, "")
	fsBeat := timeKernel(fs, fsFrames, 1, filepath.Join(dir, "fs.hb"))

	row := func(name string, beatEvery string, base, with time.Duration) []string {
		return []string{name, beatEvery,
			fmt.Sprintf("%.1fms", float64(base.Microseconds())/1000),
			fmt.Sprintf("%.1fms", float64(with.Microseconds())/1000),
			fmt.Sprintf("%.2fx", float64(with)/float64(base))}
	}
	table := &plot.Table{
		Title:  "Instrumentation overhead (§5.1), file-backed heartbeats, real kernels",
		Header: []string{"Benchmark", "Heartbeat", "Uninstrumented", "Instrumented", "Slowdown"},
		Rows: [][]string{
			row("blackscholes", "every option", base, perOption),
			row("blackscholes", "every 25000 options", base, per25000),
			row("facesim", "every frame", fsBase, fsBeat),
		},
	}
	notes := []string{
		fmt.Sprintf("blackscholes per-option slowdown: %.1fx (paper: order-of-magnitude)", float64(perOption)/float64(base)),
		fmt.Sprintf("blackscholes per-25000 slowdown: %.3fx (paper: negligible)", float64(per25000)/float64(base)),
		fmt.Sprintf("facesim per-frame slowdown: %.3fx (paper: <5%%)", float64(fsBeat)/float64(fsBase)),
	}
	return Result{ID: "overhead", Title: table.Title, Table: table, Notes: notes}
}

// timeKernel times units of real kernel work, beating every beatEvery
// units into a file-backed heartbeat (0 = uninstrumented). It returns the
// minimum of three runs — wall-clock measurements on a shared host are
// noisy upward, and the minimum is the standard robust estimator.
func timeKernel(k parsec.Kernel, units, beatEvery int, path string) time.Duration {
	best := timeKernelOnce(k, units, beatEvery, path)
	for i := 0; i < 2; i++ {
		if d := timeKernelOnce(k, units, beatEvery, path); d < best {
			best = d
		}
	}
	return best
}

func timeKernelOnce(k parsec.Kernel, units, beatEvery int, path string) time.Duration {
	var hb *heartbeat.Heartbeat
	if beatEvery > 0 {
		w, err := hbfile.Create(path, 20, 1<<12)
		if err != nil {
			panic(err)
		}
		hb, err = heartbeat.New(20, heartbeat.WithSink(w))
		if err != nil {
			panic(err)
		}
		defer hb.Close()
	}
	rng := rand.New(rand.NewSource(12345))
	var sink uint64
	start := time.Now() //hbvet:allow wallclock -- the experiment measures real runtime; virtual time would measure nothing
	for i := 1; i <= units; i++ {
		cs, _ := k.DoUnit(rng)
		sink ^= cs
		if beatEvery > 0 && i%beatEvery == 0 {
			hb.Beat()
		}
	}
	elapsed := time.Since(start) //hbvet:allow wallclock -- closes the real-runtime measurement opened above
	if sink == 42 {              // defeat dead-code elimination without output noise
		fmt.Fprintln(os.Stderr, "improbable checksum")
	}
	return elapsed
}
