package experiments

import (
	"fmt"
	"time"

	"repro/clock"
	"repro/heartbeat"
	"repro/internal/plot"
	"repro/observer"
	"repro/scheduler"
	"repro/sim"
)

// DVFS is the frequency-scaling extension experiment (§2.1): a paced
// real-time application (work items arrive at a fixed rate, the machine
// idles between completions) runs twice on eight cores — once racing at
// full clock frequency and idling, once under a heartbeat-driven DVFS
// governor that holds the heart rate inside the advertised window with the
// minimum frequency. Both meet the performance goal; the governed run
// consumes substantially less energy because dynamic power scales with the
// cube of frequency while idling still pays static leakage — the classic
// DVFS-beats-race-to-idle argument the paper cites (Govil'95, Pering'98),
// here driven end-to-end by the Heartbeats signal.
func DVFS(Options) Result {
	const (
		coreRate = 1e9
		beats    = 600
		check    = 10
		window   = 10
		tmin     = 29.0
		tmax     = 33.0
		paceHz   = 31.0 // work-item arrival rate
	)
	// Per-beat cost: a heavy middle phase needs full frequency to keep up
	// with the arrival rate; the outer phases need only about half.
	work := func(beat int) sim.Work {
		ops := 0.0912e9 // light: capacity ~32.5 beats/s at f=0.5 (p=0.95)
		if beat >= 200 && beat < 400 {
			ops = 0.188e9 // heavy: capacity ~31.5 beats/s at f=1.0
		}
		return sim.Work{Ops: ops, ParallelFrac: 0.95}
	}

	type runResult struct {
		rates    []float64
		freqs    []float64
		energy   float64
		violated int // beats measured below target after warmup
	}
	run := func(governed bool) runResult {
		clk := clock.NewVirtual()
		m := sim.NewMachine(clk, 8, coreRate)
		hb, err := heartbeat.New(window, heartbeat.WithClock(clk))
		if err != nil {
			panic(err)
		}
		if err := hb.SetTarget(tmin, tmax); err != nil {
			panic(err)
		}
		var gov *scheduler.DVFSGovernor
		var hub *observer.Hub
		if governed {
			if gov, err = scheduler.NewDVFSGovernor(m); err != nil {
				panic(err)
			}
			hub = observer.NewHub(0, nil, observer.WithHubClassifier(func(string) *observer.Classifier {
				return &observer.Classifier{Window: window, Clock: clk}
			}))
			if err := hub.Add("app", observer.HeartbeatStream(hb)); err != nil {
				panic(err)
			}
			defer hub.Remove("app")
			m.SetFrequency(0.5) // governors start low and earn speed
		}
		var res runResult
		start := clk.Now()
		for beat := 1; beat <= beats; beat++ {
			// Pacing: the beat-th work item arrives at start + beat/pace.
			arrival := start.Add(time.Duration(float64(beat-1) / paceHz * float64(time.Second)))
			if wait := arrival.Sub(clk.Now()); wait > 0 {
				m.Idle(wait)
			}
			m.Execute(work(beat))
			hb.Beat()
			rate, ok := hb.Rate(0)
			res.rates = append(res.rates, rate)
			res.freqs = append(res.freqs, m.Frequency())
			if ok && beat > 2*window && rate < tmin {
				res.violated++
			}
			if governed && beat%check == 0 {
				gov.Step(hub.Step()[0].Status)
			}
		}
		res.energy = m.Energy()
		return res
	}

	fixed := run(false)
	governed := run(true)

	series := &plot.Series{
		Title:  "Extension: heartbeat-driven DVFS vs race-to-idle at full frequency (paced input, target 29-33 beats/s)",
		XLabel: "heartbeat",
		Cols:   []string{"rate_governed", "freq_governed_x10", "rate_fixed"},
	}
	for i := 0; i < beats; i++ {
		series.Add(float64(i+1), governed.rates[i], governed.freqs[i]*10, fixed.rates[i])
	}
	saving := 1 - governed.energy/fixed.energy
	return Result{
		ID: "dvfs", Title: series.Title, Series: series,
		Notes: []string{
			fmt.Sprintf("energy: fixed-frequency %.1f units, governed %.1f units — %.0f%% saved at equal delivered performance", fixed.energy, governed.energy, saving*100),
			fmt.Sprintf("target misses after warmup: governed %d, fixed %d (of %d beats)", governed.violated, fixed.violated, beats),
			fmt.Sprintf("governed frequency: %.2f in light phases, %.2f in the heavy phase", governed.freqs[150], governed.freqs[350]),
			"extension: the paper's §2.1 self-tuning-hardware vision on the simulated machine",
		},
	}
}
