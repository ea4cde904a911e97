package workload

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/internal/check"
	"repro/bench/internal/clock"
	"repro/bench/internal/hist"
	"repro/bench/internal/sched"
	"repro/bench/internal/sut"
	"repro/bench/internal/trace"
)

// The two tree workloads share one topology — 8 applications, 4 per leaf
// relay, two leaves under one root relay, one consumer on the root's merged
// feed, loopback TCP between tiers — and use it in opposite ways.
//
// tree_paced is an open loop at 20 000 records/s: every pacedTick two
// applications each emit a pacedBurst-beat burst on the direct beat path.
// Frames carry about ten records, so per-frame costs (wake-ups, syscalls,
// pump hand-offs, header encode) dominate and the per-record codec is
// negligible. A record's latency runs from its own beat timestamp: this
// host's timers wake a sleeping generator late by most of a tick, and that is
// the host's delay, not the system's — it is reported beside the latency as
// gen.late_p99_us and makes bursts coarser, nothing else. (A generator that
// yield-spins to the due instant instead keeps one of two Ps permanently
// runnable and visibly reorders the system's own wake-ups; see README.)
//
// tree_saturated is a closed loop with a credit window: producers beat on
// the sharded path in satChunk-beat chunks and may run satWindow records
// ahead of what the root consumer has delivered for their application, so
// frames carry thousands of records, per-record work (delta codec, k-way
// merge, re-sequence, ring append, file and shm cursor reads, batch sink
// writes) dominates, and nothing may lap. Ingest is plural, as in
// examples/fleet: per leaf two applications arrive over TCP, one through a
// ring file and one through shared memory.
const (
	treeApps     = 8
	treeCapacity = 1 << 16

	pacedTick  = time.Millisecond
	pacedBurst = 10
	pacedRound = treeApps / 2 // ticks until the same application beats again

	satChunk  = 1024
	satWindow = 16384

	ingestPoll = time.Millisecond
	// lateLimit is how late the paced generator may run at its p99 before the
	// run is reported invalid: bursts ten ticks long are not small frames any
	// more, and the host was too busy to pace the load.
	lateLimit = 10 * pacedTick
)

type ingest int

const (
	overTCP ingest = iota
	overFile
	overShm
)

func (k ingest) String() string { return [...]string{"tcp", "file", "shm"}[k] }

type treeApp struct {
	id        int
	kind      ingest
	hb        sut.Heartbeat
	thread    sut.Thread
	srv       *sut.Server
	published atomic.Uint64
	delivered atomic.Uint64 // at the root consumer: the producer's credit
}

type tree struct {
	*env
	paced   bool
	apps    [treeApps]*treeApp
	order   []int // seeded visiting order of the applications
	leaves  [2]*sut.Relay
	leafSrv [2]*sut.Server
	root    *sut.Relay
	rootSrv *sut.Server
	wire    sut.Wire

	cancel context.CancelFunc
	relays sync.WaitGroup

	consumer *tap
	taps     []*tap // traced: app 0's server feed and each leaf's merged feed

	epoch   atomic.Int64 // paced: when tick 0 is due
	halt    chan struct{}
	gens    sync.WaitGroup
	genMu   sync.Mutex // guards the merged generator measurements below
	beat    hist.Hist  // per chunk (saturated) or per burst (paced), whole-chunk ns
	flush   hist.Hist  // saturated: ns per Flush
	late    hist.Hist  // paced: actual − due, per tick
	backlog hist.Hist  // traced: records between tiers, sampled
}

func newTree(e *env, paced bool) *tree {
	// The seed permutes the applications within each leaf and leaves the
	// shape alone: order alternates leaf 0, leaf 1, so every paced tick
	// beats one application under each leaf and every saturating producer
	// drives the same mix of ingest kinds whatever the seed.
	t := &tree{env: e, paced: paced, halt: make(chan struct{})}
	left, right := sched.Order(e.opt.Seed, treeApps/2), sched.Order(e.opt.Seed+1, treeApps/2)
	for i := range left {
		t.order = append(t.order, left[i], treeApps/2+right[i])
	}
	return t
}

func (t *tree) name() string {
	if t.paced {
		return "tree_paced"
	}
	return "tree_saturated"
}

// chunk is how many beats one timed unit of the generator holds.
func (t *tree) chunk() int {
	if t.paced {
		return pacedBurst
	}
	return satChunk
}

func (t *tree) build() error {
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel = cancel
	kinds := [4]ingest{overTCP, overTCP, overTCP, overTCP}
	if !t.paced {
		kinds = [4]ingest{overTCP, overTCP, overFile, overShm}
	}
	for l := range t.leaves {
		t.leaves[l] = sut.NewRelay(time.Second)
	}
	for a := range t.apps {
		app := &treeApp{id: a, kind: kinds[a%4]}
		t.apps[a] = app
		leaf, name := t.leaves[a/4], fmt.Sprintf("app%d", a)
		var err error
		switch app.kind {
		case overTCP:
			if app.hb, err = sut.NewHeartbeat(treeCapacity, nil); err != nil {
				return err
			}
			if app.srv, err = sut.Listen(); err != nil {
				return err
			}
			if err = app.srv.PublishHeartbeat("app", app.hb); err != nil {
				return err
			}
			err = leaf.DialUpstream(name, app.srv.Addr(), "app", &t.wire)
		case overFile:
			path := filepath.Join(t.dir, name+".hb")
			var w sut.FileWriter
			if w, err = sut.CreateFile(path, treeCapacity); err != nil {
				return err
			}
			if app.hb, err = sut.NewHeartbeat(treeCapacity, w.Sink()); err != nil {
				return err
			}
			err = leaf.AddFile(name, path, ingestPoll)
		case overShm:
			path := filepath.Join(t.dir, name+".shm")
			var w sut.ShmWriter
			if w, err = sut.CreateShm(path, treeCapacity); err != nil {
				return err
			}
			if app.hb, err = sut.NewHeartbeat(treeCapacity, w.Sink()); err != nil {
				return err
			}
			err = leaf.AddShm(name, path, ingestPoll)
		}
		if err != nil {
			return fmt.Errorf("app %d over %v: %w", a, app.kind, err)
		}
		if !t.paced {
			app.thread = app.hb.Thread("producer")
		}
	}
	t.root = sut.NewRelay(time.Second)
	for l, leaf := range t.leaves {
		srv, err := sut.Listen()
		if err != nil {
			return err
		}
		t.leafSrv[l] = srv
		if err := leaf.PublishOn(srv); err != nil {
			return err
		}
		if err := t.root.DialUpstream(fmt.Sprintf("leaf%d", l), srv.Addr(), "merged", &t.wire); err != nil {
			return err
		}
	}
	var err error
	if t.rootSrv, err = sut.Listen(); err != nil {
		return err
	}
	if err := t.root.PublishOn(t.rootSrv); err != nil {
		return err
	}
	for _, r := range []*sut.Relay{t.leaves[0], t.leaves[1], t.root} {
		t.relays.Add(1)
		go func() {
			defer t.relays.Done()
			r.Run(ctx)
		}()
	}

	if t.consumer, err = t.dialTap(ctx, "root", t.rootSrv.Addr(), "merged", &t.wire); err != nil {
		return err
	}
	if t.tr != nil {
		tp, err := t.dialTap(ctx, "server", t.apps[0].srv.Addr(), "app", nil)
		if err != nil {
			return err
		}
		t.taps = append(t.taps, tp)
		for l, srv := range t.leafSrv {
			if tp, err = t.dialTap(ctx, fmt.Sprintf("leaf%d", l), srv.Addr(), "merged", nil); err != nil {
				return err
			}
			t.taps = append(t.taps, tp)
		}
	}

	// One beat per application proves every path end to end.
	for _, app := range t.apps {
		t.emit(app, 1)
		app.hb.Flush()
	}
	if !spinFor(10*time.Second, t.drained) {
		return fmt.Errorf("%s: first records did not reach every subscriber within 10s", t.name())
	}
	return nil
}

// emit beats n records for app on the workload's beat path.
func (t *tree) emit(app *treeApp, n int) {
	idx := app.published.Load()
	if t.paced {
		for i := 0; i < n; i++ {
			app.hb.Beat(check.Tag(app.id, idx))
			idx++
		}
	} else {
		for i := 0; i < n; i++ {
			app.thread.Beat(check.Tag(app.id, idx))
			idx++
		}
	}
	app.published.Store(idx)
}

// expects is how many records subscriber tp should have seen once the tree
// has drained.
func (t *tree) expects(tp *tap) (n uint64) {
	for _, app := range t.apps {
		if tp.covers(app.id) {
			n += app.published.Load()
		}
	}
	return n
}

func (t *tree) drained() bool {
	if t.consumer.total.Load() != t.expects(t.consumer) {
		return false
	}
	for _, tp := range t.taps {
		if tp.total.Load() != t.expects(tp) {
			return false
		}
	}
	return true
}

func (t *tree) start() {
	if t.paced {
		t.gens.Add(1)
		go t.pace()
	} else {
		for g := 0; g < t.procs; g++ {
			var mine []*treeApp
			for pos, app := range t.order {
				if pos%t.procs == g {
					mine = append(mine, t.apps[app])
				}
			}
			t.gens.Add(1)
			go t.saturate(mine)
		}
	}
	if t.tr != nil {
		t.gens.Add(1)
		go t.sampleBacklog()
	}
}

// pace is the open-loop generator: one goroutine on a schedule of one tick
// every pacedTick, two applications per tick. It sleeps to each tick and, on
// waking, emits every tick that has come due, so the rate holds however late
// the host's timer ran.
func (t *tree) pace() {
	defer t.gens.Done()
	epoch := clock.Nanos() + int64(pacedTick)
	for k := 0; ; {
		now := clock.SleepUntil(epoch + int64(k)*int64(pacedTick))
		select {
		case <-t.halt:
			return
		default:
		}
		for at := now; epoch+int64(k)*int64(pacedTick) <= now; k++ {
			measured := t.win.in(at)
			if measured {
				t.late.Record(at - (epoch + int64(k)*int64(pacedTick)))
			}
			for j := 0; j < 2; j++ {
				t.emit(t.apps[t.order[(2*k+j)%treeApps]], pacedBurst)
				end := clock.Nanos()
				if measured {
					t.beat.Record(end - at)
				}
				at = end
			}
		}
	}
}

// saturate is one closed-loop producer goroutine driving its applications
// round-robin, each up to satWindow records ahead of the root consumer.
func (t *tree) saturate(mine []*treeApp) {
	defer t.gens.Done()
	var beat, flush hist.Hist
	for {
		select {
		case <-t.halt:
			t.genMu.Lock()
			t.beat.Merge(&beat)
			t.flush.Merge(&flush)
			t.genMu.Unlock()
			return
		default:
		}
		progressed := false
		for _, app := range mine {
			if app.published.Load()+satChunk > app.delivered.Load()+satWindow {
				continue
			}
			progressed = true
			start := clock.Nanos()
			t.emit(app, satChunk)
			mid := clock.Nanos()
			app.hb.Flush()
			end := clock.Nanos()
			if t.win.in(start) {
				beat.Record(end - start)
				flush.Record(end - mid)
			}
			if t.tr != nil {
				id := trace.ID(app.id, app.published.Load()-satChunk)
				t.tr.Add("heartbeat.beat_chunk", start, mid, "", id)
				t.tr.Add("heartbeat.flush", mid, end, "heartbeat.beat_chunk", id)
			}
		}
		if !progressed {
			// Out of credit on every application: the tree is the
			// bottleneck. Sleep rather than spin, so the CPU the process
			// is charged is the system's and not the wait's.
			clock.Sleep(200 * time.Microsecond)
		}
	}
}

// sampleBacklog records, every 10 ms of a traced run, how many records sit
// between the producers and each leaf's merged head, and between the leaves
// and the root's.
func (t *tree) sampleBacklog() {
	defer t.gens.Done()
	for {
		select {
		case <-t.halt:
			return
		default:
		}
		clock.Sleep(10 * time.Millisecond)
		if !t.win.in(clock.Nanos()) {
			continue
		}
		var leafHeads uint64
		for l, leaf := range t.leaves {
			var pub uint64
			for _, app := range t.apps[l*4 : l*4+4] {
				pub += app.published.Load()
			}
			head := leaf.MergedHead()
			leafHeads += head
			t.backlog.Record(int64(pub) - int64(head))
		}
		t.backlog.Record(int64(leafHeads) - int64(t.root.MergedHead()))
	}
}

// quiesce stops the generators, the relay loops and every subscriber. After
// it the measurements and the checkers' books are safe to read. It may be
// called more than once.
func (t *tree) quiesce() {
	select {
	case <-t.halt:
	default:
		close(t.halt)
	}
	t.gens.Wait()
	if t.cancel != nil {
		t.cancel()
	}
	t.relays.Wait()
	if t.consumer != nil {
		for _, tp := range append([]*tap{t.consumer}, t.taps...) {
			tp.c.Close()
			<-tp.done
		}
	}
}

func (t *tree) stop() (attempted, failed uint64, err error) {
	close(t.halt)
	t.gens.Wait()
	for _, app := range t.apps {
		app.hb.Flush()
		attempted += app.published.Load()
	}
	drained := waitFor(15*time.Second, t.drained)
	t.quiesce()
	if !drained {
		got := t.consumer.total.Load()
		return 0, 0, fmt.Errorf("%s: %d of %d records undelivered 15s after the producers stopped", t.name(), attempted-got, attempted)
	}
	missed, reconnects, shed := t.consumer.c.Missed(), t.consumer.c.Reconnects(), uint64(0)
	for _, r := range []*sut.Relay{t.leaves[0], t.leaves[1], t.root} {
		m, rc := r.UpstreamMissed()
		missed, reconnects, shed = missed+m, reconnects+rc, shed+r.Shed()
	}
	if err := check.Zero(missed, shed, reconnects); err != nil {
		return 0, 0, fmt.Errorf("%s: %w", t.name(), err)
	}
	for _, tp := range append([]*tap{t.consumer}, t.taps...) {
		published := make([]uint64, treeApps)
		for _, app := range t.apps {
			if tp.covers(app.id) {
				published[app.id] = app.published.Load()
			}
		}
		if err := tp.order.Conserved(published, tp.c.Missed()); err != nil {
			return 0, 0, fmt.Errorf("%s at %s: %w", t.name(), tp.name, err)
		}
	}
	return attempted, 0, nil
}

func (t *tree) close() {
	t.quiesce()
	for _, r := range []*sut.Relay{t.root, t.leaves[0], t.leaves[1]} {
		if r != nil {
			r.Close()
		}
	}
	for _, s := range []*sut.Server{t.rootSrv, t.leafSrv[0], t.leafSrv[1]} {
		if s != nil {
			s.Close()
		}
	}
	for _, app := range t.apps {
		if app == nil {
			continue
		}
		if app.srv != nil {
			app.srv.Close()
		}
		if app.hb != (sut.Heartbeat{}) {
			app.hb.Close()
		}
	}
}

func (t *tree) progress() (published, done uint64) {
	for _, app := range t.apps {
		published += app.published.Load()
	}
	return published, t.consumer.total.Load()
}

func (t *tree) report(res *Result) {
	c := t.consumer
	res.set("beat_ns_p50", "ns", perOp(&t.beat, 0.5, t.chunk()), t.beat.Count())
	res.set("deliver_p50_us", "us", c.lat.Quantile(0.5)/1e3, c.lat.Count())
	_, tail := c.lat.Tail(0.99)
	res.set("pipeline.deliver_p99_us", "us", tail/1e3, c.lat.Count())
	if t.paced {
		_, late := t.late.Tail(0.99)
		res.set("gen.late_p99_us", "us", late/1e3, t.late.Count())
		if late > float64(lateLimit) {
			res.Invalid = fmt.Sprintf("generator ran %.0f us late at its p99 (limit %v)", late/1e3, lateLimit)
		}
	}
}

func (t *tree) reportLayers(res *Result) {
	c := t.consumer
	delivered := float64(c.total.Load())
	res.set("hbnet.wire_bytes_per_record", "B", frac(float64(t.wire.Bytes()), delivered), c.total.Load())
	res.set("hbnet.client_next_busy_frac", "ratio", frac(float64(c.working), float64(c.working+c.waiting)), c.frames.Count())
	res.set("hbnet.frame_records_p50_root", "count", c.frames.Quantile(0.5), c.frames.Count())
	var leafFrames hist.Hist
	for _, tp := range t.taps {
		if tp.name == "server" {
			res.set("hbnet.frame_records_p50_server", "count", tp.frames.Quantile(0.5), tp.frames.Count())
		} else {
			leafFrames.Merge(&tp.frames)
		}
	}
	res.set("hbnet.frame_records_p50_leaf", "count", leafFrames.Quantile(0.5), leafFrames.Count())
	_, backlog := t.backlog.Tail(0.99)
	res.set("hbnet.backlog_p99", "count", backlog, t.backlog.Count())
	// stop has already proved these three are zero; they are reported so
	// the ledger shows it.
	res.set("hbnet.missed", "count", 0, 1)
	res.set("hbnet.shed", "count", 0, 1)
	res.set("hbnet.reconnects", "count", 0, 1)

	if t.paced {
		t.reportHops(res)
		return
	}
	res.set("heartbeat.flush_ns_per_record", "ns", perOp(&t.flush, 0.5, satChunk), t.flush.Count())
	res.set("heartbeat.flush_batch_p50", "count", satChunk, t.flush.Count())
	var byKind [3]float64
	for _, app := range t.apps {
		byKind[app.kind] += float64(c.perApp[app.id])
	}
	secs := t.win.seconds()
	res.set("hbnet.tcp_app_records_per_s", "1/s", byKind[overTCP]/4/secs, uint64(byKind[overTCP]))
	res.set("hbfile.app_records_per_s", "1/s", byKind[overFile]/2/secs, uint64(byKind[overFile]))
	res.set("hbshm.app_records_per_s", "1/s", byKind[overShm]/2/secs, uint64(byKind[overShm]))
}

// reportHops matches, burst by burst, when the leading record of each burst
// arrived at each tier's tap, and reports the differences. Application 0 is
// the one whose server feed is tapped, so the first two hops are its alone.
func (t *tree) reportHops(res *Result) {
	server, leaves := t.taps[0], t.taps[1:]
	var hopServer, hopLeaf, hopRoot hist.Hist
	for app := range t.apps {
		leaf := leaves[app/4]
		for b, at := range t.consumer.arrivals[app] {
			if at == 0 || !t.win.in(at) {
				continue
			}
			first := uint64(1 + b*pacedBurst)
			atLeaf := leaf.arrivals[app][b]
			if atLeaf != 0 {
				hopRoot.Record(at - atLeaf)
			}
			if app != 0 {
				continue
			}
			atServer := server.arrivals[0][b]
			if atServer == 0 || atLeaf == 0 {
				continue
			}
			beaten := server.stamps[0][b]
			hopServer.Record(atServer - beaten)
			hopLeaf.Record(atLeaf - atServer)
			id := trace.ID(0, first)
			t.tr.Add("hbnet.hop_server", beaten, atServer, "", id)
			t.tr.Add("hbnet.hop_leaf", atServer, atLeaf, "hbnet.hop_server", id)
			t.tr.Add("hbnet.hop_root", atLeaf, at, "hbnet.hop_leaf", id)
		}
	}
	for name, h := range map[string]*hist.Hist{"server": &hopServer, "leaf": &hopLeaf, "root": &hopRoot} {
		res.set("hbnet.hop_"+name+"_p50_us", "us", h.Quantile(0.5)/1e3, h.Count())
		_, tail := h.Tail(0.99)
		res.set("hbnet.hop_"+name+"_p99_us", "us", tail/1e3, h.Count())
	}
}

// tap is one subscriber of the tree: the root consumer every run has, or an
// extra subscriber a traced run adds at a tier boundary.
type tap struct {
	t      *tree
	name   string
	c      sut.Client
	order  *check.Order
	total  atomic.Uint64
	done   chan struct{}
	frames hist.Hist // records per Next

	// The root consumer's measurements.
	lat              hist.Hist // receive − due (paced) or receive − beat time (saturated)
	perApp           [treeApps]uint64
	waiting, working int64 // ns inside Next, and outside it, in the window

	// arrivals[app][burst] is when the burst's leading record got here and
	// stamps[app][burst] its beat timestamp (traced paced runs only; index
	// 0 is the set-up beat, burst b leads with index 1+b*pacedBurst).
	arrivals, stamps [treeApps][]int64
}

func (t *tree) dialTap(ctx context.Context, name, addr, feed string, w *sut.Wire) (*tap, error) {
	c, err := sut.Dial(addr, feed, w)
	if err != nil {
		return nil, fmt.Errorf("%s tap: %w", name, err)
	}
	tp := &tap{t: t, name: name, c: c, order: check.NewOrder(treeApps), done: make(chan struct{})}
	if t.paced && t.tr != nil {
		bursts := int((t.opt.Warm+t.opt.Measure)/(pacedRound*pacedTick)) + 4096
		for a := range tp.arrivals {
			tp.arrivals[a] = make([]int64, bursts)
			tp.stamps[a] = make([]int64, bursts)
		}
	}
	go tp.run(ctx)
	return tp, nil
}

// covers reports whether app's records pass this tap.
func (tp *tap) covers(app int) bool {
	switch tp.name {
	case "server":
		return app == 0
	case "leaf0":
		return app < 4
	case "leaf1":
		return app >= 4
	}
	return true
}

func (tp *tap) run(ctx context.Context) {
	defer close(tp.done)
	t := tp.t
	root := tp.name == "root"
	left := clock.Nanos()
	for {
		entered := clock.Nanos()
		b, err := tp.c.Next(ctx)
		if err != nil {
			return
		}
		now := clock.Nanos()
		measured := t.win.in(now)
		var counts [treeApps]uint64
		for i := range b.Records {
			app, idx, ok := tp.order.Observe(b.Records[i].Tag)
			if !ok {
				continue // order has already failed the run
			}
			counts[app]++
			if !t.paced || idx == 0 {
				continue
			}
			if root && measured {
				tp.lat.Record(now - b.Records[i].Time.UnixNano())
			}
			if tp.arrivals[app] != nil && (idx-1)%pacedBurst == 0 {
				if burst := int(idx-1) / pacedBurst; burst < len(tp.arrivals[app]) {
					tp.arrivals[app][burst] = now
					tp.stamps[app][burst] = b.Records[i].Time.UnixNano()
				}
			}
		}
		n := len(b.Records)
		if root && !t.paced {
			for a, c := range counts {
				if c > 0 {
					t.apps[a].delivered.Add(c)
				}
			}
			if n > 0 && measured {
				tp.lat.Record(now - b.Records[0].Time.UnixNano())
				tp.lat.Record(now - b.Records[n-1].Time.UnixNano())
			}
		}
		if measured {
			tp.frames.Record(int64(n))
			for a, c := range counts {
				tp.perApp[a] += c
			}
		}
		tp.c.Recycle(b)
		tp.total.Add(uint64(n))
		after := clock.Nanos()
		if measured {
			tp.waiting += now - entered
			tp.working += (after - now) + (entered - left)
		}
		if root {
			t.tr.Add("hbnet.client_next", entered, after, "", "")
		}
		left = after
	}
}
