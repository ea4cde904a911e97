package workload

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/internal/check"
	"repro/bench/internal/clock"
	"repro/bench/internal/hist"
	"repro/bench/internal/sut"
)

// Probes are short isolated runs of one layer's public functions with the
// record shapes its workload uses. Each belongs to one workload — the one
// whose end-to-end metric it should move — and runs at the end of that
// workload's traced run.

// medianOf times fn, which performs ops operations per call, reps times and
// returns the median nanoseconds per operation.
func medianOf(reps, ops int, fn func()) float64 {
	per := make([]float64, reps)
	for i := range per {
		t0 := clock.Nanos()
		fn()
		per[i] = float64(clock.Nanos()-t0) / float64(ops)
	}
	sort.Float64s(per)
	return median(per)
}

func runProbes(name string, opt Options, res *Result) error {
	switch name {
	case "beat_hot":
		return probeBeat(runtime.NumCPU(), opt.Measure < 5*time.Second, res)
	case "tree_saturated":
		return probeTree(opt, res)
	case "fleet_rollup":
		probeFleet(res)
	}
	return nil
}

const probeChunk = 4096

// probeBeat measures beat_hot's layers; quick, for the package's own
// sub-second test runs, cuts every repetition count and duration to a tenth.
func probeBeat(procs int, quick bool, res *Result) error {
	reps, unit := 2000, 150*time.Millisecond
	if quick {
		reps, unit = 200, 15*time.Millisecond
	}
	ring := sut.NewRing(hotCapacity)
	var n int64
	res.set("ring.push_ns", "ns", medianOf(reps, probeChunk, func() {
		for i := 0; i < probeChunk; i++ {
			n++
			ring.Push(n, n)
		}
	}), uint64(reps))
	var sink int64
	res.set("heartbeat.clock_ns", "ns", medianOf(reps, probeChunk, func() {
		for i := 0; i < probeChunk; i++ {
			sink += sut.ClockNanos()
		}
	}), uint64(reps))
	if sink == 0 {
		return fmt.Errorf("clock probe read nothing")
	}

	direct, err := directBeat(procs, 2*unit)
	if err != nil {
		return err
	}
	res.set("heartbeat.beat_direct_ns_p50", "ns", perOp(&direct, 0.5, probeChunk), direct.Count())

	// Snippet 2's table: beats per second at g producer goroutines against
	// the single-goroutine run. Past the CPU count the goroutines only
	// time-share, so those rows are counts, not scaling.
	var base float64
	for _, g := range []int{1, 2, 4, 8} {
		rate, err := beatRate(g, unit)
		if err != nil {
			return err
		}
		if g == 1 {
			base = rate
		}
		res.set(fmt.Sprintf("heartbeat.speedup_g%d", g), "ratio", frac(rate, base), 1)
		res.set(fmt.Sprintf("heartbeat.efficiency_g%d", g), "ratio", frac(rate, base)/float64(g), 1)
	}
	return nil
}

// directBeat runs g goroutines on one heartbeat's direct path
// (Heartbeat.BeatTag) for d, all contending for the same history, and returns
// their per-chunk times.
func directBeat(g int, d time.Duration) (hist.Hist, error) {
	hb, err := sut.NewHeartbeat(hotCapacity, nil)
	if err != nil {
		return hist.Hist{}, err
	}
	defer hb.Close()
	var halt atomic.Bool
	var wg sync.WaitGroup
	chunks := make([]hist.Hist, g)
	for p := 0; p < g; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int64(0); !halt.Load(); {
				t0 := clock.Nanos()
				for i := 0; i < probeChunk; i++ {
					hb.Beat(n)
					n++
				}
				chunks[p].Record(clock.Nanos() - t0)
			}
		}()
	}
	clock.Sleep(d)
	halt.Store(true)
	wg.Wait()
	var all hist.Hist
	for i := range chunks {
		all.Merge(&chunks[i])
	}
	return all, nil
}

// beatRate runs g producers on one heartbeat's sharded path, unobserved,
// for d and returns beats per second.
func beatRate(g int, d time.Duration) (float64, error) {
	hb, err := sut.NewHeartbeat(hotCapacity, nil)
	if err != nil {
		return 0, err
	}
	defer hb.Close()
	var halt atomic.Bool
	var beats atomic.Uint64
	var wg sync.WaitGroup
	t0 := clock.Nanos()
	for p := 0; p < g; p++ {
		th := hb.Thread(fmt.Sprintf("p%d", p))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n uint64
			for !halt.Load() {
				for i := 0; i < probeChunk; i++ {
					th.Beat(int64(n))
					n++
				}
			}
			beats.Add(n)
		}()
	}
	clock.Sleep(d)
	halt.Store(true)
	wg.Wait()
	return float64(beats.Load()) / (float64(clock.Nanos()-t0) / 1e9), nil
}

// probeTree measures tree_saturated's layers one at a time: the two
// cross-process backends' writers and readers on satChunk-record batches,
// and — as process CPU per record, so they add up against
// cpu_ns_per_record — what an in-process stream, a wire hop and a relay merge
// each cost beyond producing the records. pipeline.residual_frac is what the
// parts leave unexplained.
func probeTree(opt Options, res *Result) error {
	dir, err := os.MkdirTemp(opt.OutDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	fw, err := sut.CreateFile(filepath.Join(dir, "probe.hb"), treeCapacity)
	if err != nil {
		return err
	}
	defer fw.Close()
	fr, err := sut.OpenFile(filepath.Join(dir, "probe.hb"))
	if err != nil {
		return err
	}
	defer fr.Close()
	err = probeBackend(res, "hbfile", fw.WriteRecords, func(since uint64) (int, uint64, error) {
		got, cursor, err := fr.ReadSince(since, satChunk)
		return len(got), cursor, err
	})
	if err != nil {
		return err
	}

	sw, err := sut.CreateShm(filepath.Join(dir, "probe.shm"), treeCapacity)
	if err != nil {
		return err
	}
	defer sw.Close()
	sr, err := sut.OpenShm(filepath.Join(dir, "probe.shm"))
	if err != nil {
		return err
	}
	defer sr.Close()
	buf := make([]sut.Record, 0, satChunk)
	err = probeBackend(res, "hbshm", sw.WriteRecords, func(since uint64) (int, uint64, error) {
		got, cursor, err := sr.ReadSinceInto(since, satChunk, buf)
		return len(got), cursor, err
	})
	if err != nil {
		return err
	}

	// A million records per hop probe; the package's own tests, which run
	// sub-second windows, push a sixteenth of that.
	records := 1 << 20
	if opt.Measure < 5*time.Second {
		records = 1 << 16
	}
	produce, err := produceCPU(records)
	if err != nil {
		return fmt.Errorf("produce probe: %w", err)
	}
	stream, err := hopCPU(records, 1, func(hbs []sut.Heartbeat) (batchSource, func(), error) {
		return sut.HeartbeatStream(hbs[0]), func() {}, nil
	})
	if err != nil {
		return fmt.Errorf("stream probe: %w", err)
	}
	wire, err := hopCPU(records, 1, func(hbs []sut.Heartbeat) (batchSource, func(), error) {
		srv, err := sut.Listen()
		if err != nil {
			return nil, nil, err
		}
		if err := srv.PublishHeartbeat("app", hbs[0]); err != nil {
			srv.Close()
			return nil, nil, err
		}
		c, err := sut.Dial(srv.Addr(), "app", nil)
		if err != nil {
			srv.Close()
			return nil, nil, err
		}
		return c, func() { c.Close(); srv.Close() }, nil
	})
	if err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	merge, err := hopCPU(records, treeApps, func(hbs []sut.Heartbeat) (batchSource, func(), error) {
		relay := sut.NewRelay(time.Second)
		for i, hb := range hbs {
			if err := relay.AddHeartbeat(fmt.Sprintf("app%d", i), hb); err != nil {
				return nil, nil, err
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { relay.Run(ctx); close(done) }()
		s, err := relay.Merged(ctx)
		if err != nil {
			cancel()
			<-done
			return nil, nil, err
		}
		return s, func() { cancel(); <-done; relay.Close() }, nil
	})
	if err != nil {
		return fmt.Errorf("merge probe: %w", err)
	}
	// Each topology's CPU includes beating and flushing the records; taking
	// that out leaves the layer. A wire hop is what a server and a client add
	// to the in-process stream they sit on; a merge is everything a relay
	// does between in-process upstreams and an in-process subscriber.
	res.set("hbnet.stream_ns_per_record", "ns", stream-produce, uint64(records))
	res.set("hbnet.wire_ns_per_record", "ns", wire-stream, uint64(records))
	res.set("hbnet.merge_ns_per_record", "ns", merge-produce, uint64(records))

	// Along tree_saturated's path a record is beaten and flushed to its
	// sink (beat_ns_p50 covers both), enters a leaf over TCP or through a
	// file or shm read, is merged twice, and crosses two more wires.
	m := func(name string) float64 { return res.Metrics[name].Value }
	ingest := (4*m("hbnet.wire_ns_per_record") + 2*m("hbfile.read_ns_per_record") + 2*m("hbshm.read_ns_per_record")) / treeApps
	parts := m("beat_ns_p50") + ingest + 2*m("hbnet.merge_ns_per_record") + 2*m("hbnet.wire_ns_per_record")
	res.set("pipeline.residual_frac", "ratio", 1-frac(parts, m("cpu_ns_per_record")), 1)
	return nil
}

// probeBackend times one cross-process backend on satChunk-record batches:
// a batch write, the read that picks it up, and a read with nothing new.
func probeBackend(res *Result, layer string, write func([]sut.Record) error, read func(since uint64) (n int, cursor uint64, err error)) error {
	const reps = 400
	batch := make([]sut.Record, satChunk)
	var seq, cursor uint64
	writes, reads := make([]float64, reps), make([]float64, reps)
	for i := range writes {
		now := clock.Nanos()
		for j := range batch {
			seq++
			batch[j] = sut.Record{Seq: seq, Time: time.Unix(0, now+int64(j)), Tag: check.Tag(0, seq)}
		}
		t0 := clock.Nanos()
		if err := write(batch); err != nil {
			return fmt.Errorf("%s probe: %w", layer, err)
		}
		t1 := clock.Nanos()
		n, next, err := read(cursor)
		t2 := clock.Nanos()
		if err != nil || n != satChunk {
			return fmt.Errorf("%s probe: read %d of %d records: %v", layer, n, satChunk, err)
		}
		cursor = next
		writes[i], reads[i] = float64(t1-t0)/satChunk, float64(t2-t1)/satChunk
	}
	sort.Float64s(writes)
	sort.Float64s(reads)
	res.set(layer+".write_ns_per_record", "ns", median(writes), reps)
	res.set(layer+".read_ns_per_record", "ns", median(reads), reps)
	var idleErr error
	res.set(layer+".idle_tick_ns", "ns", medianOf(2000, 1, func() {
		if _, _, err := read(cursor); err != nil {
			idleErr = err
		}
	}), 2000)
	return idleErr
}

// produceCPU is the hop probes' baseline: the process CPU per record of
// beating and flushing alone, nobody reading.
func produceCPU(records int) (float64, error) {
	hb, err := sut.NewHeartbeat(treeCapacity, nil)
	if err != nil {
		return 0, err
	}
	defer hb.Close()
	th := hb.Thread("producer")
	cpu0 := clock.CPUNanos()
	for n := 0; n < records; {
		for i := 0; i < satChunk; i++ {
			th.Beat(check.Tag(0, uint64(n)))
			n++
		}
		hb.Flush()
	}
	return float64(clock.CPUNanos()-cpu0) / float64(records), nil
}

// batchSource is the consuming end of a hop probe.
type batchSource interface {
	Next(ctx context.Context) (sut.Batch, error)
	Recycle(sut.Batch)
}

// hopCPU pushes records through whatever open builds on top of napps
// heartbeats — producers on the sharded path in satChunk chunks, a credit
// window of satWindow, one consumer — and returns the process CPU spent per
// record.
func hopCPU(records, napps int, open func([]sut.Heartbeat) (batchSource, func(), error)) (float64, error) {
	hbs := make([]sut.Heartbeat, napps)
	threads := make([]sut.Thread, napps)
	for i := range hbs {
		hb, err := sut.NewHeartbeat(treeCapacity, nil)
		if err != nil {
			return 0, err
		}
		defer hb.Close()
		hbs[i], threads[i] = hb, hb.Thread("producer")
	}
	src, closeSrc, err := open(hbs)
	if err != nil {
		return 0, err
	}
	defer closeSrc()

	var delivered atomic.Uint64
	ctx, cancel := clock.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1) // the consumer's one result
	go func() {
		order := check.NewOrder(napps)
		for order.Total() < uint64(records) {
			b, err := src.Next(ctx)
			if err != nil {
				done <- fmt.Errorf("consumer saw %d of %d records: %w", order.Total(), records, err)
				return
			}
			for i := range b.Records {
				order.Observe(b.Records[i].Tag)
			}
			delivered.Add(uint64(len(b.Records)))
			src.Recycle(b)
		}
		published := make([]uint64, napps)
		for i := range published {
			published[i] = uint64(records / napps)
		}
		done <- order.Conserved(published, 0)
	}()

	cpu0 := clock.CPUNanos()
	next := make([]uint64, napps)
	for published := uint64(0); published < uint64(records) && ctx.Err() == nil; {
		if published+satChunk > delivered.Load()+satWindow {
			clock.Sleep(200 * time.Microsecond)
			continue
		}
		a := int(published/satChunk) % napps
		for i := 0; i < satChunk; i++ {
			threads[a].Beat(check.Tag(a, next[a]))
			next[a]++
		}
		hbs[a].Flush()
		published += satChunk
	}
	if err := <-done; err != nil {
		return 0, err
	}
	return float64(clock.CPUNanos()-cpu0) / float64(records), nil
}

// probeFleet measures fleet_rollup's reducers and the table swap in
// isolation, at the fleet's own sizes.
func probeFleet(res *Result) {
	names := make([]string, fleetApps)
	for i := range names {
		names[i] = fmt.Sprintf("app%03d", i)
	}
	const batchLen = 64
	recs := make([]sut.Record, batchLen)
	now := clock.Nanos()
	for i := range recs {
		recs[i] = sut.Record{Seq: uint64(i + 1), Time: time.Unix(0, now+int64(i)*1000), Tag: int64(i)}
	}
	ds := sut.NewDownsampler()
	res.set("observer.absorb_ns_per_record", "ns", medianOf(200, fleetApps*batchLen, func() {
		for _, app := range names {
			ds.Absorb(app, recs)
		}
	}), 200)
	var rollups []sut.Rollup
	flushes := make([]float64, 200)
	for i := range flushes {
		for _, app := range names {
			ds.Absorb(app, recs)
		}
		t0 := clock.Nanos()
		rollups = ds.Flush(now, now+int64(fleetWindow))
		flushes[i] = float64(clock.Nanos()-t0) / fleetApps
	}
	sort.Float64s(flushes)
	res.set("observer.flush_ns_per_app", "ns", median(flushes), 200)

	// The fleet's root: 256 applications, each reported by 2 children.
	cp := sut.NewCompactor()
	res.set("observer.compact_ns_per_rollup", "ns", medianOf(200, 2*fleetApps, func() {
		for child := 0; child < 2; child++ {
			for _, r := range rollups {
				cp.Absorb(r)
			}
		}
		cp.Flush(now, now+int64(fleetWindow))
	}), 200)

	table := sut.NewTable()
	for _, n := range names {
		table.Set(n, 1)
	}
	i := 0
	res.set("balance.swap_ns_p50", "ns", medianOf(300, 1, func() {
		// Alternate each node between half and full weight: every call is
		// a real copy-on-write rebuild.
		w := 0.5 + 0.5*float64((i/fleetApps)%2)
		table.Set(names[i%fleetApps], w)
		i++
	}), 300)
}
