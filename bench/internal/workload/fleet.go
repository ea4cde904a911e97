package workload

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/internal/check"
	"repro/bench/internal/clock"
	"repro/bench/internal/hist"
	"repro/bench/internal/sched"
	"repro/bench/internal/sut"
)

// fleet_rollup uses the same hbnet and the same relay differently: summaries
// instead of records, many applications instead of many records per
// application. An open loop of fleetProducers synthetic producers over
// fleetApps applications (Zipf-skewed, churning, with correlated silences —
// package sched) beats every fleetPeriod from one generator goroutine that
// wakes every fleetTick. Each application is a real Heartbeat beaten on the
// direct path and read in-process by one of two leaf relays; only rollups
// cross the wire: the root dials both leaves' rollup feeds, compacts them,
// and publishes one rollup per application per fleetWindow to a consumer and
// to a balance.Updater driving a Table that a picker goroutine reads.
// observer's Downsampler and RollupCompactor, the rollup codec and balance do
// the work; the raw record codec is bypassed.
const (
	fleetProducers = 100_000
	fleetApps      = 256
	fleetTick      = 10 * time.Millisecond
	fleetPeriod    = 100 * time.Millisecond
	fleetWindow    = 100 * time.Millisecond
	fleetCycle     = 10 * time.Second // the schedule's churn and silences repeat at this period
	// rootPhase starts the root's rollup clock this long after the leaves',
	// so leaf rollups always land mid-window at the root and the staleness
	// a consumer sees does not depend on which side of a tick a start-up
	// race fell.
	rootPhase = fleetWindow / 2
	pickChunk = 4096
	// fleetLateLimit is the generator lateness (p99) beyond which a run is
	// reported invalid: two pump ticks, a host too busy to pace the load.
	fleetLateLimit = 2 * fleetTick
)

func fleetSchedule(seed int64) *sched.Fleet {
	return sched.NewFleet(sched.FleetConfig{
		Seed: seed, Producers: fleetProducers, Apps: fleetApps, ZipfS: 1.1,
		PeriodTicks: int(fleetPeriod / fleetTick), CycleTicks: int(fleetCycle / fleetTick),
		ChurnFrac: 0.1, Bursts: 2, BurstFrac: 0.1, BurstTicks: int(500 * time.Millisecond / fleetTick),
	})
}

type fleet struct {
	*env
	plan       *sched.Fleet
	hbs        []sut.Heartbeat
	byName     map[string]int
	leaves     [2]*sut.Relay
	leafSrv    [2]*sut.Server
	root       *sut.Relay
	rootSrv    *sut.Server
	rollupWire sut.Wire
	table      sut.Table

	cancel  context.CancelFunc
	helpers sync.WaitGroup // relay loops, updater, consumer, leaf tap

	consumer sut.Client
	leafTap  sut.Client // traced: leaf 0's rollup feed

	// Consumer-side books, per application, written by the consumer
	// goroutine and read after it is joined — except the totals, which the
	// drain polls.
	records, missed []uint64
	accounted       atomic.Uint64 // Σ records + missed seen so far
	appsSeen        atomic.Uint64 // applications with at least one record rolled up
	windows         atomic.Uint64 // rollup deliveries
	stale           hist.Hist     // beaten → covered by a delivered rollup, application 0
	leafLat         hist.Hist     // traced: receive − Rollup.End at the leaf tap

	probeMu sync.Mutex
	probes  []countAt // application 0's cumulative count after each tick

	published []uint64 // by the generator; read after it is joined
	pubTotal  atomic.Uint64
	halt      chan struct{}
	gens      sync.WaitGroup
	// The generator's and the picker's own measurements: one writer each,
	// read after gens has been waited for.
	beat     hist.Hist // picoseconds per beat, one sample per tick
	late     hist.Hist
	pick     hist.Hist // ns per pickChunk picks
	picks    uint64
	badPicks uint64
	swaps    atomic.Uint64
	remapMax atomic.Uint64 // largest swap fraction, in millionths
}

// countAt says application 0 had published count records after the tick the
// generator began emitting at the instant at.
type countAt struct {
	count uint64
	at    int64
}

// newFleet generates the schedule here, before set-up is timed: that is the
// benchmark's own work, not the system's.
func newFleet(e *env) *fleet {
	return &fleet{env: e, plan: fleetSchedule(e.opt.Seed), halt: make(chan struct{}), byName: make(map[string]int)}
}

// capacityFor sizes an application's history to a quarter second of its own
// traffic, so a leaf pump that is briefly descheduled is not lapped, without
// giving 256 applications the hottest one's ring.
func (f *fleet) capacityFor(app int) int {
	perSec := float64(f.plan.PerApp[app]) * float64(time.Second/fleetPeriod)
	c := 1024
	for float64(c) < perSec/4 {
		c <<= 1
	}
	return c
}

func (f *fleet) build() error {
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.records = make([]uint64, fleetApps)
	f.missed = make([]uint64, fleetApps)
	f.published = make([]uint64, fleetApps)
	for l := range f.leaves {
		f.leaves[l] = sut.NewRelay(fleetWindow)
	}
	for a := 0; a < fleetApps; a++ {
		hb, err := sut.NewHeartbeat(f.capacityFor(a), nil)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("app%03d", a)
		f.hbs = append(f.hbs, hb)
		f.byName[name] = a
		if err := f.leaves[a%2].AddHeartbeat(name, hb); err != nil {
			return err
		}
	}
	run := func(r *sut.Relay) {
		f.helpers.Add(1)
		go func() {
			defer f.helpers.Done()
			r.Run(ctx)
		}()
	}
	for l, leaf := range f.leaves {
		srv, err := sut.Listen()
		if err != nil {
			return err
		}
		f.leafSrv[l] = srv
		if err := leaf.PublishOn(srv); err != nil {
			return err
		}
		run(leaf)
	}
	clock.Sleep(rootPhase)
	f.root = sut.NewRelay(fleetWindow)
	for l, srv := range f.leafSrv {
		if err := f.root.DialRollupUpstream(fmt.Sprintf("leaf%d", l), srv.Addr(), "rollup", &f.rollupWire); err != nil {
			return err
		}
	}
	var err error
	if f.rootSrv, err = sut.Listen(); err != nil {
		return err
	}
	if err := f.root.PublishCompacted(f.rootSrv, "fleet"); err != nil {
		return err
	}
	run(f.root)

	if f.consumer, err = sut.DialRollup(f.rootSrv.Addr(), "fleet", &f.rollupWire); err != nil {
		return err
	}
	f.helpers.Add(1)
	go f.consume(ctx)
	if f.tr != nil {
		if f.leafTap, err = sut.DialRollup(f.leafSrv[0].Addr(), "rollup", nil); err != nil {
			return err
		}
		f.helpers.Add(1)
		go f.tapLeaf(ctx)
	}
	f.table = sut.NewTable()
	f.helpers.Add(1)
	go func() {
		defer f.helpers.Done()
		// The updater ends with ctx; its error then is the cancellation.
		_ = sut.RunUpdater(ctx, f.table, f.rootSrv.Addr(), "fleet", &f.rollupWire, func(frac float64) {
			f.swaps.Add(1)
			for m := uint64(frac * 1e6); ; {
				old := f.remapMax.Load()
				if m <= old || f.remapMax.CompareAndSwap(old, m) {
					break
				}
			}
		})
	}()

	// The open loop starts here and never pauses: producers beat whether or
	// not anyone measures, and a gap between set-up and the run would read
	// downstream as a fleet-wide silence and drain the whole table. Ready
	// once every application has been rolled up at the consumer and the
	// table has someone to pick. (Not "every application holds weight": a
	// host too slow to pace the load — the race detector's — leaves the
	// smallest applications silent for whole windows, legitimately drained.)
	f.gens.Add(1)
	go f.generate()
	if !waitFor(20*time.Second, func() bool { return f.appsSeen.Load() == fleetApps && f.table.Live() > 0 }) {
		return fmt.Errorf("fleet_rollup: %d of %d applications rolled up, %d live in the table, 20s after the generator started",
			f.appsSeen.Load(), fleetApps, f.table.Live())
	}
	return nil
}

func (f *fleet) consume(ctx context.Context) {
	defer f.helpers.Done()
	for {
		b, err := f.consumer.NextRollups(ctx)
		if err != nil {
			return
		}
		now := clock.Nanos()
		var sum uint64
		for _, r := range b.Rollups {
			app, ok := f.byName[r.App]
			if !ok {
				continue // stop's conservation check fails on the shortfall
			}
			if f.records[app] == 0 && r.Records > 0 {
				f.appsSeen.Add(1)
			}
			f.records[app] += r.Records
			f.missed[app] += r.Missed
			sum += r.Records + r.Missed
			if app == 0 {
				f.coverProbes(r.Count, now)
			}
		}
		f.accounted.Add(sum)
		f.windows.Add(1)
	}
}

// coverProbes times every tick of application 0 that a rollup advertising
// count now covers.
func (f *fleet) coverProbes(count uint64, now int64) {
	f.probeMu.Lock()
	n := 0
	for n < len(f.probes) && f.probes[n].count <= count {
		if f.win.in(now) {
			f.stale.Record(now - f.probes[n].at)
		}
		n++
	}
	f.probes = f.probes[n:]
	f.probeMu.Unlock()
}

func (f *fleet) tapLeaf(ctx context.Context) {
	defer f.helpers.Done()
	for {
		b, err := f.leafTap.NextRollups(ctx)
		if err != nil {
			return
		}
		now := clock.Nanos()
		if len(b.Rollups) > 0 && f.win.in(now) {
			end := b.Rollups[len(b.Rollups)-1].End.UnixNano()
			f.leafLat.Record(now - end)
			f.tr.Add("hbnet.rollup_deliver", end, now, "", "")
		}
	}
}

func (f *fleet) start() {
	f.gens.Add(1)
	go f.pickLoop()
}

// generate is the open-loop pump: every fleetTick it beats, application by
// application, for every producer due in that tick.
func (f *fleet) generate() {
	defer f.gens.Done()
	counts := make([]int, fleetApps)
	epoch := clock.Nanos() + int64(fleetTick)
	// Each instance enters the schedule's cycle at its own offset, so a run's
	// windows together see the whole cycle — churn, silences and all —
	// instead of the same stretch of it several times.
	k0 := f.instance * f.plan.Cfg.CycleTicks / f.opt.Instances
	for k := k0; ; k++ {
		due := epoch + int64(k-k0)*int64(fleetTick)
		start := clock.SleepUntil(due)
		select {
		case <-f.halt:
			return
		default:
		}
		total := f.plan.Tick(k, counts)
		for app, n := range counts {
			if n == 0 {
				continue
			}
			hb, idx := f.hbs[app], f.published[app]
			for ; n > 0; n-- {
				hb.Beat(check.Tag(app, idx))
				idx++
			}
			f.published[app] = idx
			counts[app] = 0
		}
		end := clock.Nanos()
		f.pubTotal.Add(uint64(total))
		f.probeMu.Lock()
		f.probes = append(f.probes, countAt{count: f.published[0], at: start})
		f.probeMu.Unlock()
		if f.win.in(start) && total > 0 {
			f.late.Record(start - due)
			f.beat.Record((end - start) * 1000 / int64(total))
		}
		f.tr.Add("heartbeat.beat_chunk", start, end, "", "")
	}
}

// pickLoop is the balancer's data path: pickChunk picks, timed as one chunk,
// about once a millisecond, while the updater swaps the table underneath.
func (f *fleet) pickLoop() {
	defer f.gens.Done()
	key := uint64(f.opt.Seed)
	for {
		select {
		case <-f.halt:
			return
		default:
		}
		start := clock.Nanos()
		for i := 0; i < pickChunk; i++ {
			key += 0x9E3779B97F4A7C15
			if node, ok := f.table.Pick(key); !ok || node == "" {
				f.badPicks++
			}
		}
		end := clock.Nanos()
		f.picks += pickChunk
		if f.win.in(start) {
			f.pick.Record(end - start)
		}
		f.tr.Add("balance.pick_chunk", start, end, "", "")
		clock.Sleep(time.Millisecond)
	}
}

func (f *fleet) stop() (attempted, failed uint64, err error) {
	close(f.halt)
	f.gens.Wait()
	attempted = f.pubTotal.Load()
	// Two more windows carry the tail through the leaves and the root.
	drained := waitFor(5*time.Second, func() bool { return f.accounted.Load() == attempted })
	f.cancel()
	f.helpers.Wait()
	if !drained {
		return 0, 0, fmt.Errorf("fleet_rollup: rollups account for %d of %d published records 5s after the generator stopped", f.accounted.Load(), attempted)
	}
	if err := check.Rollups(f.records, f.missed, f.published); err != nil {
		return 0, 0, fmt.Errorf("fleet_rollup: %w", err)
	}
	// An empty pick is a failure only while the fleet beats on schedule. A
	// generator the host cannot pace (two ticks late: the run is reported
	// invalid anyway) leaves every application silent for whole windows, and
	// a table that then drains to nothing is doing its job. So does one that
	// never got a tick out inside the window at all.
	if _, late := f.late.Tail(0.99); f.badPicks > 0 && f.late.Count() > 0 && late <= float64(fleetLateLimit) {
		return 0, 0, fmt.Errorf("fleet_rollup: %d of %d picks returned no node", f.badPicks, f.picks)
	}
	return attempted, 0, nil
}

func (f *fleet) close() {
	select {
	case <-f.halt:
	default:
		close(f.halt)
	}
	f.gens.Wait()
	if f.cancel != nil {
		f.cancel()
	}
	f.consumer.Close()
	f.leafTap.Close()
	f.helpers.Wait()
	for _, r := range []*sut.Relay{f.root, f.leaves[0], f.leaves[1]} {
		if r != nil {
			r.Close()
		}
	}
	for _, s := range []*sut.Server{f.rootSrv, f.leafSrv[0], f.leafSrv[1]} {
		if s != nil {
			s.Close()
		}
	}
	for _, hb := range f.hbs {
		hb.Close()
	}
}

func (f *fleet) progress() (published, done uint64) {
	n := f.pubTotal.Load()
	return n, n
}

func (f *fleet) report(res *Result) {
	res.set("beat_ns_p50", "ns", f.beat.Quantile(0.5)/1000, f.beat.Count())
	res.set("deliver_p50_us", "us", f.stale.Quantile(0.5)/1e3, f.stale.Count())
	_, tail := f.stale.Tail(0.99)
	res.set("pipeline.deliver_p99_us", "us", tail/1e3, f.stale.Count())
	res.set("balance.pick_ns_p50", "ns", perOp(&f.pick, 0.5, pickChunk), f.pick.Count())
	_, late := f.late.Tail(0.99)
	res.set("gen.late_p99_us", "us", late/1e3, f.late.Count())
	if late > float64(fleetLateLimit) {
		res.Invalid = fmt.Sprintf("generator ran %.0f us late at its p99 (limit %v)", late/1e3, fleetLateLimit)
	}
}

func (f *fleet) reportLayers(res *Result) {
	windows := f.windows.Load()
	res.set("hbnet.rollup_wire_bytes_per_window", "B", frac(float64(f.rollupWire.Bytes()), float64(windows)), windows)
	res.set("hbnet.rollup_deliver_p50_us", "us", f.leafLat.Quantile(0.5)/1e3, f.leafLat.Count())
	// No raw feed is ever dialed here; the raw-wire counter is reported to
	// show it.
	res.set("hbnet.wire_bytes_per_record", "B", 0, 1)
	res.set("balance.swaps", "count", float64(f.swaps.Load()), 1)
	res.set("balance.remap_frac_max", "ratio", float64(f.remapMax.Load())/1e6, f.swaps.Load())
	var recs float64
	for _, r := range f.records {
		recs += float64(r)
	}
	res.set("pipeline.loss_frac", "ratio", 1-frac(recs, float64(res.Attempted)), res.Attempted)
}
