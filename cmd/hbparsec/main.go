// Command hbparsec runs the instrumented PARSEC-class kernels' real
// computation on this host's wall clock for -duration each, beating at the
// Table 2 granularity, and reports the measured heart rate. With -hbfile
// the heartbeats are also published for external observers (watch with
// hbmon in another terminal). Table 2 itself, on the simulated 8-core
// reference machine, is `hbexperiments -run table2`.
//
// Usage:
//
//	hbparsec [-bench all|blackscholes|...] [-duration 5s] [-hbfile PATH]
//	         [-workers N]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/hbfile"
	"repro/heartbeat"
	"repro/internal/parsec"
)

func main() {
	bench := flag.String("bench", "all", "benchmark name or 'all'")
	duration := flag.Duration("duration", 5*time.Second, "how long to run each kernel")
	hbPath := flag.String("hbfile", "", "publish heartbeats to this ring file")
	workers := flag.Int("workers", 1, "concurrent workers with per-thread heartbeats")
	flag.Parse()

	kernels := parsec.Kernels()
	if *bench != "all" {
		k, ok := parsec.ByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "hbparsec: unknown benchmark %q\n", *bench)
			os.Exit(1)
		}
		kernels = []parsec.Kernel{k}
	}
	for _, k := range kernels {
		if err := runReal(k, *duration, *hbPath, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "hbparsec:", err)
			os.Exit(1)
		}
	}
}

func runReal(k parsec.Kernel, d time.Duration, hbPath string, workers int) error {
	opts := []heartbeat.Option{heartbeat.WithCapacity(1 << 14)}
	if hbPath != "" {
		w, err := hbfile.Create(hbPath, 20, 1<<14)
		if err != nil {
			return err
		}
		opts = append(opts, heartbeat.WithSink(w))
	}
	hb, err := heartbeat.New(20, opts...)
	if err != nil {
		return err
	}
	defer hb.Close()

	var sink uint64
	var units uint64
	start := time.Now() //hbvet:allow wallclock -- benchmark driver: measures real runtime of real work
	if workers > 1 {
		// Per-thread heartbeats for every worker plus attributed global
		// beats (see parsec.RunParallel). Sized by duration estimate:
		// run in slices until the deadline.
		deadline := start.Add(d)
		slice := 4 * k.UnitsPerBeat()
		for time.Now().Before(deadline) { //hbvet:allow wallclock -- real-runtime benchmark deadline
			sink ^= parsec.RunParallel(func() parsec.Kernel {
				nk, _ := parsec.ByName(k.Name())
				return nk
			}, hb, workers, slice, time.Now().UnixNano()) //hbvet:allow wallclock -- worker RNG seed entropy for the benchmark run
			units += uint64(workers * slice)
		}
	} else {
		rng := rand.New(rand.NewSource(time.Now().UnixNano())) //hbvet:allow wallclock -- RNG seed entropy for the benchmark run
		deadline := start.Add(d)
		for time.Now().Before(deadline) { //hbvet:allow wallclock -- real-runtime benchmark deadline
			for u := 0; u < k.UnitsPerBeat(); u++ {
				cs, _ := k.DoUnit(rng)
				sink ^= cs
				units++
			}
			hb.Beat()
		}
	}
	elapsed := time.Since(start) //hbvet:allow wallclock -- closes the real-runtime measurement opened at start
	rate := float64(hb.Count()) / elapsed.Seconds()
	winRate, _ := hb.Rate(0)
	fmt.Printf("%-14s %-22s beats %6d  units %10d  avg %10.2f beats/s  window %10.2f beats/s  (checksum %x)\n",
		k.Name(), k.BeatLabel(), hb.Count(), units, rate, winRate, sink&0xffff)
	if err := hb.SinkErr(); err != nil {
		return fmt.Errorf("heartbeat sink: %w", err)
	}
	return nil
}
