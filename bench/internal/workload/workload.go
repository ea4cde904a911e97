// Package workload builds each benchmark pipeline from the system's public
// constructors (through package sut), drives it from this process, checks
// what came out, and reduces what it timed to named metrics.
//
// A run measures several pipeline instances in turn; an instance is set up,
// warmed until every ring and pool is full, measured for its window, drained,
// checked and taken down. The window is two clock readings fixed before the generators start; every
// measuring goroutine records a sample only when its own clock reading
// falls inside, so nothing is reset or locked at the window's edges, and
// the histograms are read only after their goroutines have been joined.
package workload

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"repro/bench/internal/clock"
	"repro/bench/internal/confine"
	"repro/bench/internal/hist"
	"repro/bench/internal/trace"
)

// Names lists the workloads in the order -all runs them.
var Names = []string{"beat_hot", "tree_paced", "tree_saturated", "fleet_rollup"}

// Spec declares one metric: the name BENCHMARK.json lists it under, its
// unit, and which direction is better.
type Spec struct{ Name, Unit, Better string }

// EndToEnd is what a user of the system sees. Every workload reports every
// one of them, each in the sense its own pipeline gives it (see
// bench/README.md for the per-workload definitions).
var EndToEnd = []Spec{
	{"setup_s", "s", "lower"},
	{"beat_ns_p50", "ns", "lower"},
	{"records_per_s", "1/s", "higher"},
	{"cpu_ns_per_record", "ns", "lower"},
	{"deliver_p50_us", "us", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// Options fixes one run.
type Options struct {
	Seed      int64
	Measure   time.Duration // measured time, shared equally between the instances
	Warm      time.Duration // unmeasured lead-in of each instance; fills rings and pools
	Instances int           // fresh pipelines measured in turn; medians over them are reported
	Trace     bool
	OutDir    string // where trace files and scratch files go
}

// Metric is one reported number with the sample count behind it.
type Metric struct {
	Value   float64
	Unit    string
	Samples uint64
}

// Result is what one run reports.
type Result struct {
	Workload  string
	Attempted uint64 // records published
	Failed    uint64 // records neither delivered nor counted as lost, plus refused operations
	Metrics   map[string]Metric
	// Invalid is non-empty when the run's numbers should not be compared:
	// the open-loop generator ran late, so latency measures the host.
	Invalid string
}

func (r *Result) set(name, unit string, v float64, samples uint64) {
	r.Metrics[name] = Metric{Value: v, Unit: unit, Samples: samples}
}

// window is the measured interval, in Unix nanoseconds.
type window struct{ from, to atomic.Int64 }

func (w *window) in(t int64) bool { return t >= w.from.Load() && t < w.to.Load() }

func (w *window) seconds() float64 { return float64(w.to.Load()-w.from.Load()) / 1e9 }

// env is what a pipeline is built in.
type env struct {
	opt      Options
	instance int    // which of opt.Instances pipelines this is
	procs    int    // generator goroutines: the host's CPU count
	dir      string // scratch directory for ring files
	win      *window
	tr       *trace.Recorder // nil on an untraced run
}

// pipeline is one workload's system plus its generators and consumers.
type pipeline interface {
	// build constructs the system and returns once it has delivered its
	// first records end to end.
	build() error
	// start launches the generators; they run until stop.
	start()
	// stop ends the generators, drains the system, joins every goroutine
	// and checks the outputs.
	stop() (attempted, failed uint64, err error)
	// close releases the system. It is safe after a failed build.
	close()
	// progress returns how many records the producers have published and
	// how many have come out of the far end (for a workload with no far end,
	// the same number). It is called while the generators run.
	progress() (published, done uint64)
	// report reduces the joined measurements to metrics.
	report(res *Result)
	// reportLayers adds the per-layer metrics of a traced run.
	reportLayers(res *Result)
}

func newPipeline(name string, e *env) (pipeline, error) {
	switch name {
	case "beat_hot":
		return &beatHot{env: e}, nil
	case "tree_paced":
		return newTree(e, true), nil
	case "tree_saturated":
		return newTree(e, false), nil
	case "fleet_rollup":
		return newFleet(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, Names)
}

// Run executes one workload. Untraced, it measures for opt.Measure and
// reports the end-to-end metrics. Traced, it measures an untraced half and a
// traced half on fresh pipelines, runs the workload's isolated probes, and
// reports the per-layer metrics — with trace_overhead_frac comparing the two
// halves' headline metric — and writes the spans to
// OutDir/trace-<workload>.json.
func Run(name string, opt Options) (Result, error) {
	// tree_paced is measured with the process confined to one CPU. It idles
	// between bursts, so most of its CPU is wake-ups, and what those cost on
	// a shared few-CPU host follows where the kernel places the runtime's
	// threads, not the code (see package confine): unconfined, its
	// cpu_ns_per_record spread 31–40 % between runs of one commit. It offers
	// a fifth of one CPU's worth of work, so one CPU leaves it as idle as two.
	if name == "tree_paced" {
		restore, err := confine.OneCPU()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: running on one P but not pinned to a CPU: %v\n", name, err)
		}
		defer restore()
	}
	if !opt.Trace {
		return runOnce(name, opt, nil)
	}
	half := opt
	half.Measure = opt.Measure / 2
	plain, err := runOnce(name, half, nil)
	if err != nil {
		return Result{}, fmt.Errorf("untraced half: %w", err)
	}
	tr := trace.New()
	traced, err := runOnce(name, half, tr)
	if err != nil {
		return Result{}, fmt.Errorf("traced half: %w", err)
	}
	h := headline[name]
	over := traced.Metrics[h.Name].Value/plain.Metrics[h.Name].Value - 1
	if h.Better == "higher" {
		over = plain.Metrics[h.Name].Value/traced.Metrics[h.Name].Value - 1
	}
	traced.set("trace_overhead_frac", "ratio", over, 2)
	if err := runProbes(name, opt, &traced); err != nil {
		return Result{}, fmt.Errorf("probes: %w", err)
	}
	if err := tr.Write(filepath.Join(opt.OutDir, "trace-"+name+".json"), name); err != nil {
		return Result{}, err
	}
	return traced, nil
}

// headline is the metric trace_overhead_frac is taken on.
var headline = map[string]Spec{
	"beat_hot":       {"beat_ns_p50", "ns", "lower"},
	"tree_paced":     {"deliver_p50_us", "us", "lower"},
	"tree_saturated": {"records_per_s", "1/s", "higher"},
	"fleet_rollup":   {"cpu_ns_per_record", "ns", "lower"},
}

// runOnce measures opt.Instances fresh pipelines one after another, each for
// its share of opt.Measure, and reports per metric the median over them. One
// pipeline per run would make a run's numbers hostage to that one instance's
// luck — where its rings landed in memory, which CPU its goroutines settled
// on — which on a two-CPU host moves a saturating workload by a tenth;
// several instances average that out, give set-up its repeats, and run every
// correctness check that many times.
func runOnce(name string, opt Options, tr *trace.Recorder) (Result, error) {
	if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
		return Result{}, fmt.Errorf("scratch directory: %w", err)
	}
	dir, err := os.MkdirTemp(opt.OutDir, "run-")
	if err != nil {
		return Result{}, fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(dir)

	res := Result{Workload: name, Metrics: make(map[string]Metric)}
	values := make(map[string][]float64)
	var invalid []string
	for i := 0; i < opt.Instances; i++ {
		e := &env{opt: opt, instance: i, procs: runtime.NumCPU(), dir: dir, win: new(window), tr: tr}
		one, err := runInstance(name, e)
		if err != nil {
			return Result{}, fmt.Errorf("instance %d: %w", i, err)
		}
		res.Attempted += one.Attempted
		res.Failed += one.Failed
		if one.Invalid != "" {
			invalid = append(invalid, one.Invalid)
		}
		for m, v := range one.Metrics {
			values[m] = append(values[m], v.Value)
			agg := res.Metrics[m]
			agg.Unit, agg.Samples = v.Unit, agg.Samples+v.Samples
			res.Metrics[m] = agg
		}
	}
	// Like every figure, validity is the majority's: one instance that
	// caught a host stall does not condemn a run whose medians ignore it.
	if 2*len(invalid) > opt.Instances {
		res.Invalid = fmt.Sprintf("%d of %d instances: %s", len(invalid), opt.Instances, invalid[0])
	}
	for m, vs := range values {
		sort.Float64s(vs)
		agg := res.Metrics[m]
		agg.Value = median(vs)
		res.Metrics[m] = agg
	}
	return res, nil
}

// runInstance sets one pipeline up, warms it, measures it for its share of
// the run, drains it, checks it and takes it down.
func runInstance(name string, e *env) (Result, error) {
	res := Result{Workload: name, Metrics: make(map[string]Metric)}
	p, err := newPipeline(name, e)
	if err != nil {
		return Result{}, err
	}
	defer p.close()
	t0 := clock.Nanos()
	if err := p.build(); err != nil {
		return Result{}, fmt.Errorf("set-up: %w", err)
	}
	res.set("setup_s", "s", float64(clock.Nanos()-t0)/1e9, 1)

	from := clock.Nanos() + int64(e.opt.Warm)
	to := from + int64(e.opt.Measure)/int64(e.opt.Instances)
	e.win.from.Store(from)
	e.win.to.Store(to)
	p.start()

	// Throughput and CPU per record are medians over slices of the window,
	// not totals over it: a collector cycle or a neighbour's burst then
	// costs a few slices instead of shifting the whole figure.
	type reading struct {
		at, cpu         int64
		published, done uint64
	}
	var readings []reading
	for at := clock.SleepUntil(from); ; {
		pub, done := p.progress()
		readings = append(readings, reading{at, clock.CPUNanos(), pub, done})
		if at >= to {
			break
		}
		at = clock.SleepUntil(min(at+int64(slice), to))
	}
	var rates, costs []float64
	for i := 1; i < len(readings); i++ {
		a, b := readings[i-1], readings[i]
		rates = append(rates, float64(b.done-a.done)/(float64(b.at-a.at)/1e9))
		if b.published > a.published {
			costs = append(costs, float64(b.cpu-a.cpu)/float64(b.published-a.published))
		}
	}
	sort.Float64s(rates)
	sort.Float64s(costs)
	last := readings[len(readings)-1]
	res.set("records_per_s", "1/s", median(rates), last.done-readings[0].done)
	res.set("cpu_ns_per_record", "ns", median(costs), last.published-readings[0].published)

	// Retained state, not collector timing: collect first, then read, with
	// the pipeline still up and loaded.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.set("live_heap_mb", "MB", float64(ms.HeapAlloc)/(1<<20), 1)

	if res.Attempted, res.Failed, err = p.stop(); err != nil {
		return Result{}, err
	}
	p.report(&res)
	if e.tr != nil {
		p.reportLayers(&res)
	}
	return res, nil
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// slice is how often the window is sampled for throughput and CPU.
const slice = 250 * time.Millisecond

// perOp reduces a histogram of whole-chunk times to a per-operation
// quantile.
func perOp(h *hist.Hist, q float64, chunk int) float64 { return h.Quantile(q) / float64(chunk) }

// spinFor polls cond, yielding between checks, until it holds or d elapses.
// Set-up waits use it: they last microseconds to milliseconds, and a sleeping
// poll would round every one of them up to this host's timer granularity.
func spinFor(d time.Duration, cond func() bool) bool {
	deadline := clock.Nanos() + int64(d)
	for !cond() {
		if clock.Nanos() > deadline {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// waitFor polls cond every millisecond until it holds or d elapses.
func waitFor(d time.Duration, cond func() bool) bool {
	deadline := clock.Nanos() + int64(d)
	for !cond() {
		if clock.Nanos() > deadline {
			return false
		}
		clock.Sleep(time.Millisecond)
	}
	return true
}

// frac is a/b, 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// PerLayer is what a traced run reports: one layer's work, timed from
// outside. A metric reads 0 on a workload whose path does not cross its
// layer or that does not own its probe (bench/README.md says which).
var PerLayer = []Spec{
	{"trace_overhead_frac", "ratio", "lower"},
	{"pipeline.deliver_p99_us", "us", "lower"},
	{"pipeline.loss_frac", "ratio", "lower"},
	{"pipeline.residual_frac", "ratio", "lower"},
	{"gen.late_p99_us", "us", "lower"},
	{"ring.push_ns", "ns", "lower"},
	{"heartbeat.clock_ns", "ns", "lower"},
	{"heartbeat.beat_direct_ns_p50", "ns", "lower"},
	{"heartbeat.beat_ns_p99", "ns", "lower"},
	{"heartbeat.flush_ns_per_record", "ns", "lower"},
	{"heartbeat.flush_batch_p50", "count", "higher"},
	{"heartbeat.next_busy_frac", "ratio", "lower"},
	{"heartbeat.next_batch_p50", "count", "higher"},
	{"heartbeat.lapped_frac", "ratio", "lower"},
	{"heartbeat.rate_ns", "ns", "lower"},
	{"heartbeat.speedup_g1", "ratio", "higher"},
	{"heartbeat.speedup_g2", "ratio", "higher"},
	{"heartbeat.speedup_g4", "ratio", "higher"},
	{"heartbeat.speedup_g8", "ratio", "higher"},
	{"heartbeat.efficiency_g1", "ratio", "higher"},
	{"heartbeat.efficiency_g2", "ratio", "higher"},
	{"heartbeat.efficiency_g4", "ratio", "higher"},
	{"heartbeat.efficiency_g8", "ratio", "higher"},
	{"hbfile.write_ns_per_record", "ns", "lower"},
	{"hbfile.read_ns_per_record", "ns", "lower"},
	{"hbfile.idle_tick_ns", "ns", "lower"},
	{"hbfile.app_records_per_s", "1/s", "higher"},
	{"hbshm.write_ns_per_record", "ns", "lower"},
	{"hbshm.read_ns_per_record", "ns", "lower"},
	{"hbshm.idle_tick_ns", "ns", "lower"},
	{"hbshm.app_records_per_s", "1/s", "higher"},
	{"hbnet.tcp_app_records_per_s", "1/s", "higher"},
	{"hbnet.hop_server_p50_us", "us", "lower"},
	{"hbnet.hop_server_p99_us", "us", "lower"},
	{"hbnet.hop_leaf_p50_us", "us", "lower"},
	{"hbnet.hop_leaf_p99_us", "us", "lower"},
	{"hbnet.hop_root_p50_us", "us", "lower"},
	{"hbnet.hop_root_p99_us", "us", "lower"},
	{"hbnet.frame_records_p50_server", "count", "higher"},
	{"hbnet.frame_records_p50_leaf", "count", "higher"},
	{"hbnet.frame_records_p50_root", "count", "higher"},
	{"hbnet.wire_bytes_per_record", "B", "lower"},
	{"hbnet.rollup_wire_bytes_per_window", "B", "lower"},
	{"hbnet.client_next_busy_frac", "ratio", "lower"},
	{"hbnet.stream_ns_per_record", "ns", "lower"},
	{"hbnet.merge_ns_per_record", "ns", "lower"},
	{"hbnet.wire_ns_per_record", "ns", "lower"},
	{"hbnet.backlog_p99", "count", "lower"},
	{"hbnet.missed", "count", "lower"},
	{"hbnet.shed", "count", "lower"},
	{"hbnet.reconnects", "count", "lower"},
	{"hbnet.rollup_deliver_p50_us", "us", "lower"},
	{"hbnet.spans", "count", "higher"},
	{"observer.absorb_ns_per_record", "ns", "lower"},
	{"observer.flush_ns_per_app", "ns", "lower"},
	{"observer.compact_ns_per_rollup", "ns", "lower"},
	{"balance.pick_ns_p50", "ns", "lower"},
	{"balance.swap_ns_p50", "ns", "lower"},
	{"balance.swaps", "count", "higher"},
	{"balance.remap_frac_max", "ratio", "lower"},
}
