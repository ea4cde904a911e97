package scheduler_test

import (
	"context"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/clock"
	"repro/heartbeat"
	"repro/observer"
	"repro/scheduler"
	"repro/sim"
)

// clusterApp wires one heartbeat-enabled application into a sim.Cluster.
type clusterApp struct {
	hb   *heartbeat.Heartbeat
	proc *sim.Proc
}

func addClusterApp(t *testing.T, clk *clock.Virtual, c *sim.Cluster, name string, initial int,
	min, max float64, ops func(beat uint64) float64, pf float64) *clusterApp {
	t.Helper()
	hb, err := heartbeat.New(10, heartbeat.WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	if err := hb.SetTarget(min, max); err != nil {
		t.Fatal(err)
	}
	a := &clusterApp{hb: hb}
	beat := uint64(0)
	a.proc = c.AddProc(name, initial, func() (sim.Work, bool) {
		if beat > 0 {
			hb.Beat() // the previous item just completed
		}
		beat++
		return sim.Work{Ops: ops(beat), ParallelFrac: pf}, true
	})
	return a
}

// Two applications with different goals share eight cores: the partitioner
// must put BOTH inside their windows and keep them there.
func TestPartitionerBalancesTwoApps(t *testing.T) {
	clk := clock.NewVirtual()
	cluster := sim.NewCluster(clk, 8, 1e6)
	// App A: wants 8-10 beats/s, needs ~5 cores (0.5e6 ops/beat, p=0.95).
	a := addClusterApp(t, clk, cluster, "a", 1, 8, 10, func(uint64) float64 { return 0.5e6 }, 0.95)
	// App B: wants 2-3 beats/s, needs ~2 cores (0.8e6 ops/beat, p=0.9).
	b := addClusterApp(t, clk, cluster, "b", 1, 2, 3, func(uint64) float64 { return 0.8e6 }, 0.90)

	part, err := scheduler.NewPartitioner(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := part.Add("a", a.proc.SetCores, 1); err != nil {
		t.Fatal(err)
	}
	if err := part.Add("b", b.proc.SetCores, 1); err != nil {
		t.Fatal(err)
	}
	hub := watch(t, 10, map[string]observer.Stream{"a": observer.HeartbeatStream(a.hb), "b": observer.HeartbeatStream(b.hb)})

	var last []scheduler.AppStatus
	for i := 0; i < 120; i++ {
		cluster.RunUntil(clk.Now().Add(2 * time.Second))
		last = part.Step(hub.Step())
		if used := a.proc.Cores() + b.proc.Cores(); used > 8 {
			t.Fatalf("oversubscribed: %d cores", used)
		}
	}
	for _, st := range last {
		if !st.RateOK {
			t.Fatalf("%s: no rate", st.Name)
		}
		if st.Rate < st.TargetMin*0.95 || st.Rate > st.TargetMax*1.05 {
			t.Fatalf("%s: rate %.2f outside [%g, %g] (cores %d)",
				st.Name, st.Rate, st.TargetMin, st.TargetMax, st.Cores)
		}
	}
}

// When one application's load rises, the partitioner must shift cores from
// the over-performing application — the paper's global reallocation.
func TestPartitionerShiftsCoresOnLoadChange(t *testing.T) {
	clk := clock.NewVirtual()
	cluster := sim.NewCluster(clk, 8, 1e6)
	// A's per-beat cost doubles at beat 200.
	a := addClusterApp(t, clk, cluster, "a", 4, 8, 10, func(beat uint64) float64 {
		if beat > 200 {
			return 0.9e6
		}
		return 0.5e6
	}, 0.95)
	b := addClusterApp(t, clk, cluster, "b", 4, 2, 3, func(uint64) float64 { return 0.8e6 }, 0.90)

	part, err := scheduler.NewPartitioner(8)
	if err != nil {
		t.Fatal(err)
	}
	part.Add("a", a.proc.SetCores, 4)
	part.Add("b", b.proc.SetCores, 3)
	hub := watch(t, 10, map[string]observer.Stream{"a": observer.HeartbeatStream(a.hb), "b": observer.HeartbeatStream(b.hb)})

	coresAtPhase1 := 0
	for i := 0; i < 300; i++ {
		cluster.RunUntil(clk.Now().Add(2 * time.Second))
		part.Step(hub.Step())
		if a.hb.Count() < 200 {
			coresAtPhase1 = a.proc.Cores()
		}
	}
	if a.proc.Cores() <= coresAtPhase1 {
		t.Fatalf("a's allocation did not grow with its load: phase1 %d, final %d",
			coresAtPhase1, a.proc.Cores())
	}
	// B must still be inside its window at the end.
	rate, ok := b.hb.Rate(10)
	if !ok || rate < 2*0.95 || rate > 3*1.05 {
		t.Fatalf("b's rate %.2f left its window after reallocation", rate)
	}
}

func TestPartitionerValidation(t *testing.T) {
	if _, err := scheduler.NewPartitioner(0); err == nil {
		t.Fatal("0-core pool accepted")
	}
	part, err := scheduler.NewPartitioner(2)
	if err != nil {
		t.Fatal(err)
	}
	set := func(n int) int { return n }
	if err := part.Add("a", nil, 1); err == nil {
		t.Fatal("nil actuator accepted")
	}
	if err := part.Add("a", set, 1); err != nil {
		t.Fatal(err)
	}
	if err := part.Add("a", set, 1); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := part.Add("b", set, 1); err != nil {
		t.Fatal(err)
	}
	if err := part.Add("c", set, 1); err == nil {
		t.Fatal("third app on 2 cores accepted")
	}
	// An application missing from the statuses is unobserved: it is
	// reported without a rate, and nothing moves.
	if sts := part.Step(nil); len(sts) != 2 || sts[1].Name != "b" || sts[1].RateOK || sts[0].Cores != 1 || sts[1].Cores != 1 {
		t.Fatalf("unobserved step = %+v", sts)
	}
}

// Property: for arbitrary observed rates, the partitioner never
// oversubscribes the pool and never starves an application below one core.
func TestPartitionerInvariantsProperty(t *testing.T) {
	f := func(rates []uint16) bool {
		const total = 8
		part, err := scheduler.NewPartitioner(total)
		if err != nil {
			return false
		}
		// Three fake apps whose observed rates are driven by the fuzz
		// input; targets [10, 20] each.
		cores := [3]int{2, 2, 2}
		rate := [3]float64{15, 15, 15}
		streams := map[string]observer.Stream{}
		for i := 0; i < 3; i++ {
			i := i
			name := fmt.Sprint("app", i)
			streams[name] = &rateStream{perSec: &rate[i], min: 10, max: 20}
			set := func(n int) int {
				if n < 1 {
					n = 1
				}
				cores[i] = n
				return n
			}
			if err := part.Add(name, set, cores[i]); err != nil {
				return false
			}
		}
		hub := watch(t, 4, streams)
		for step, r := range rates {
			rate[step%3] = float64(r % 40)
			part.Step(hub.Step())
			sum := cores[0] + cores[1] + cores[2]
			if sum > total {
				return false
			}
			for _, c := range cores {
				if c < 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// rateStream is a scripted observer.Stream: every non-blocking drain finds
// exactly one fresh five-record batch, beating at whatever *perSec says at
// that moment, continuing the sequence and timeline of the previous one.
type rateStream struct {
	perSec   *float64
	min, max float64
	seq      uint64
	at       time.Time
	drained  bool // the pending batch was delivered; the next Next is idle
}

func (s *rateStream) Next(ctx context.Context) (observer.Batch, error) {
	if s.drained = !s.drained; !s.drained {
		return observer.Batch{}, ctx.Err()
	}
	perSec := *s.perSec
	if perSec <= 0 {
		perSec = 0.001
	}
	gap := time.Duration(float64(time.Second) / perSec)
	recs := make([]heartbeat.Record, 5)
	for i := range recs {
		s.seq++
		s.at = s.at.Add(gap)
		recs[i] = heartbeat.Record{Seq: s.seq, Time: s.at}
	}
	return observer.Batch{
		Records: recs, Count: s.seq, Window: 5,
		TargetMin: s.min, TargetMax: s.max, TargetSet: true,
	}, nil
}

// Add keeps its contract — it succeeds while the pool can hold one core
// per application — without over-committing the pool: when no core is
// free, the new application's core comes from the one holding the most.
func TestPartitionerAddNeverOvercommits(t *testing.T) {
	part, err := scheduler.NewPartitioner(4)
	if err != nil {
		t.Fatal(err)
	}
	cores := map[string]int{}
	for _, app := range []struct {
		name    string
		initial int
	}{{"a", 4}, {"b", 1}, {"c", 3}, {"d", 1}} {
		name := app.name
		set := func(n int) int {
			n = max(n, 1)
			cores[name] = n
			return n
		}
		if err := part.Add(name, set, app.initial); err != nil {
			t.Fatal(err)
		}
		granted := 0
		for _, n := range cores {
			granted += n
		}
		if granted > 4 {
			t.Fatalf("after adding %s: %d of 4 cores granted (%v)", name, granted, cores)
		}
	}
}
