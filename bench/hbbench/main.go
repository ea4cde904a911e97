// Command hbbench is the repository's one wall-clock benchmark: beat cost,
// tree latency, tree throughput and fleet rollups, each as a named workload
// with named metrics (see bench/README.md).
//
//	go run ./bench/hbbench -workload tree_paced -seed 1 -seconds 20 -trace 0
//	go run ./bench/hbbench -all            # the four untraced runs, one document
//	go run ./bench/hbbench -all -trace 1   # the four traced runs
//
// Human-readable progress goes to standard error. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics — every
// end-to-end metric untraced, every per-layer metric traced. A run whose
// outputs fail a correctness check prints no metrics and exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/bench/internal/workload"
)

// instances is how many fresh pipelines a run measures in turn, each for an
// equal share of -seconds; every metric is the median over them, set-up time
// included.
const instances = 5

// warmUp precedes each instance's measured window; runs too short for it
// scale it down.
const warmUp = time.Second

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: one of "+fmt.Sprint(workload.Names))
	all := flag.Bool("all", false, "run every workload back to back and print one document keyed by workload")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "length of the measured window")
	traced := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	out := flag.String("out", "bench/out", "directory for trace files and scratch ring files")
	flag.Parse()

	names := []string{*name}
	if *all {
		names = workload.Names
	} else if *name == "" {
		fmt.Fprintln(os.Stderr, "hbbench: -workload or -all is required")
		flag.Usage()
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "hbbench: -seconds must be positive, -trace 0 or 1, and no stray arguments")
		os.Exit(2)
	}

	opt := workload.Options{
		Seed:      *seed,
		Measure:   time.Duration(*seconds * float64(time.Second)),
		Warm:      warmUp,
		Instances: instances,
		Trace:     *traced == 1,
		OutDir:    *out,
	}
	if share := opt.Measure / instances; share < 2*warmUp {
		opt.Warm = share / 2
	}

	reports := make(map[string]report)
	for _, n := range names {
		res, err := workload.Run(n, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		reports[n] = summarize(res, opt.Trace)
	}
	var doc any = reports
	if !*all {
		doc = reports[*name]
	}
	line, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hbbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// summarize prints the run for a reader and reduces it to the declared
// metrics: every end-to-end metric, or every per-layer metric when traced.
func summarize(res workload.Result, traced bool) report {
	specs := workload.EndToEnd
	if traced {
		specs = workload.PerLayer
	}
	fmt.Fprintf(os.Stderr, "%s: %d records published, %d failed\n", res.Workload, res.Attempted, res.Failed)
	if res.Invalid != "" {
		fmt.Fprintf(os.Stderr, "  INVALID RUN: %s\n", res.Invalid)
	}
	rep := report{Correct: true, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]value)}
	for _, s := range specs {
		m := res.Metrics[s.Name]
		rep.Metrics[s.Name] = value{Value: m.Value, Unit: s.Unit}
		fmt.Fprintf(os.Stderr, "  %-36s %16.4f %-6s (%d samples)\n", s.Name, m.Value, s.Unit, m.Samples)
	}
	// What the run measured besides the declared group — a traced run's
	// end-to-end figures, an untraced run's tail latency and generator
	// lateness — is for the reader only.
	var extra []string
	for name := range res.Metrics {
		if _, declared := rep.Metrics[name]; !declared {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		m := res.Metrics[name]
		fmt.Fprintf(os.Stderr, "  also %-31s %16.4f %-6s (%d samples)\n", name, m.Value, m.Unit, m.Samples)
	}
	return rep
}
