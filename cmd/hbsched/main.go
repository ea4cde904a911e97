// Command hbsched runs the external-scheduler experiments of §5.3: an
// instrumented application advertises a target heart-rate window, and a
// scheduler that sees only heartbeats grows and shrinks its core
// allocation (Figures 5, 6 and 7). The loop is internal/experiments'
// RunSched; this command charts it under a chosen policy.
//
// Usage:
//
//	hbsched [-workload bodytrack|streamcluster|x264|all]
//	        [-policy stepper|pi|planner] [-chart-width W] [-chart-height H]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/parsec"
	"repro/internal/plot"
)

func main() {
	workload := flag.String("workload", "all", "bodytrack, streamcluster, x264, or all")
	policy := flag.String("policy", "stepper", "'stepper' (the paper's), or 'pi' or 'planner' (extensions)")
	cw := flag.Int("chart-width", 72, "ASCII chart width")
	ch := flag.Int("chart-height", 16, "ASCII chart height")
	flag.Parse()

	for _, w := range parsec.SchedWorkloads() {
		if *workload != "all" && w.Name != *workload {
			continue
		}
		run, err := experiments.RunSched(w, *policy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hbsched:", err)
			os.Exit(1)
		}
		series := &plot.Series{
			Title:  fmt.Sprintf("%s under the external %s scheduler (target %g-%g beats/s)", w.Name, *policy, w.TargetMin, w.TargetMax),
			XLabel: "heartbeat",
			Cols:   []string{"rate", "cores"},
		}
		for i, b := range run.Beats {
			series.Add(float64(i+1), b.Rate, float64(b.Cores))
		}
		series.Chart(os.Stdout, *cw, *ch)
		fmt.Println()
	}
}
