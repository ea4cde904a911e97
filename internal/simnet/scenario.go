package simnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/balance"
	"repro/clock"
	"repro/hbfile"
	"repro/hbnet"
	"repro/heartbeat"
	"repro/internal/simcheck"
	"repro/observer"
)

// This file is the seeded scenario matrix: a generator that expands one
// seed into a whole-stack configuration — topology, producer count, fault
// schedule — and a runner that executes it under virtual time on the
// in-memory network, checking the delivery contract with
// internal/simcheck at every hop. Every scenario is reproducible from its
// seed alone; a failing run reports the seed, and re-running it replays
// the same generated configuration.

// Topology selects which observation stack the scenario runs.
type Topology int

const (
	// TopoDirect observes in-process heartbeats through subscriptions.
	TopoDirect Topology = iota
	// TopoFile observes heartbeat files through FollowFile tails.
	TopoFile
	// TopoRelayTree runs the full stack: producers → files → leaf relays
	// → root relay → one consumer, over the in-memory network.
	TopoRelayTree
	topoCount
)

func (t Topology) String() string {
	switch t {
	case TopoDirect:
		return "direct"
	case TopoFile:
		return "file"
	case TopoRelayTree:
		return "relay-tree"
	}
	return fmt.Sprintf("topology(%d)", int(t))
}

// EventKind is one fault (or consumer action) the schedule can inject.
type EventKind int

const (
	// EvRestart kills and recreates producer P (same file variant).
	EvRestart EventKind = iota
	// EvRecreate is EvRestart with the file recreated in the other
	// variant (ring ↔ log); on non-file topologies it acts like EvRestart.
	EvRecreate
	// EvLap makes producer P burst several ring capacities of beats at one
	// instant, lapping consumers that poll.
	EvLap
	// EvSilence pauses producer P's beats for Arg nanoseconds.
	EvSilence
	// EvLinkBlip severs the link named by Link once (reconnect resumes).
	EvLinkBlip
	// EvDropBytes arms the Link's byte trigger: its connection is severed
	// mid-stream after Arg more bytes.
	EvDropBytes
	// EvPartition partitions Link for Arg nanoseconds, then heals it.
	EvPartition
	// EvServerCrash closes server S (listener and connections die; relay
	// histories survive) and restores it after Arg nanoseconds.
	EvServerCrash
	// EvListenerOutage takes server S's listener down for Arg nanoseconds
	// and blips its links so clients must redial into the outage.
	EvListenerOutage
	// EvResume closes the consumer's stream and resumes from its cursor.
	EvResume
	// EvSlowConsumer stalls the consumer for Arg while its link carries a
	// small write limit, so the root server's writes backpressure, its
	// write timeout fires on the virtual clock, and the subscriber is
	// disconnected mid-stream and must reconnect from its cursor.
	EvSlowConsumer
	// EvNodeDrain flatlines producer P for Arg nanoseconds and asserts the
	// balancer's whole reaction arc (relay-tree only): the health-weight
	// policy must drain the node after consecutive silent rollup windows,
	// the table swap must reshuffle no more of the key space than the
	// remap invariant allows, and after the producer recovers the node
	// must reclaim full weight through the ramp before the scenario ends.
	EvNodeDrain
	// EvLeafDie decommissions leaf relay S-1 (relay-tree with >= 2 leaves):
	// every producer upstream re-homes to a sibling leaf via
	// cursor-preserving handoff, the root drains what the dying leaf still
	// holds and then removes it through the runtime-membership path, and
	// the node is shut down — after which the dense/conserved/lives
	// invariants must hold at every hop with zero duplicate deliveries.
	EvLeafDie
)

func (k EventKind) String() string {
	switch k {
	case EvRestart:
		return "restart"
	case EvRecreate:
		return "recreate"
	case EvLap:
		return "lap"
	case EvSilence:
		return "silence"
	case EvLinkBlip:
		return "link-blip"
	case EvDropBytes:
		return "drop-bytes"
	case EvPartition:
		return "partition"
	case EvServerCrash:
		return "server-crash"
	case EvListenerOutage:
		return "listener-outage"
	case EvResume:
		return "resume"
	case EvSlowConsumer:
		return "slow-consumer"
	case EvNodeDrain:
		return "node-drain"
	case EvLeafDie:
		return "leaf-die"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one scheduled fault at a virtual instant.
type Event struct {
	At       time.Duration // offset from scenario start, virtual
	Kind     EventKind
	Producer int           // EvRestart/EvRecreate/EvLap/EvSilence
	Link     int           // EvLinkBlip/EvDropBytes/EvPartition: index into the scenario's links
	Server   int           // EvServerCrash/EvListenerOutage/EvLeafDie: index into the scenario's servers (EvLeafDie: 1+leaf)
	Arg      time.Duration // window length for windowed faults; byte count for EvDropBytes
}

// Scenario is one generated whole-stack configuration.
type Scenario struct {
	Seed      int64
	Topology  Topology
	Producers int
	Leaves    int // relay-tree only
	Duration  time.Duration
	BeatEvery time.Duration
	Poll      time.Duration
	RingCap   int
	Rollup    time.Duration
	MaxLink   time.Duration // per-link latency is rng-drawn in [0, MaxLink]
	Events    []Event
}

func (sc Scenario) String() string {
	return fmt.Sprintf("seed=%d %s producers=%d leaves=%d dur=%v beat=%v poll=%v ring=%d events=%d",
		sc.Seed, sc.Topology, sc.Producers, sc.Leaves, sc.Duration, sc.BeatEvery, sc.Poll, sc.RingCap, len(sc.Events))
}

// Generate expands seed into a scenario: N producers × producer faults
// {restart, file-recreate, lap, silence} × network faults {link blip,
// drop-at-byte, partition window, server crash, listener outage,
// slow consumer} × topology {direct, file, relay-tree}. The same seed
// always generates the same scenario.
func Generate(seed int64) Scenario {
	return GenerateWith(seed, GenConfig{})
}

// GenConfig pins parts of a generated scenario that Generate otherwise
// draws small: zero fields keep the draw, positive fields override it
// after the draw, so the rng stream — and with it every downstream draw
// (fault schedule, latencies) — is identical whether or not a field is
// pinned. Generate(seed) == GenerateWith(seed, GenConfig{}) exactly.
type GenConfig struct {
	// Producers overrides the drawn producer count (the draw caps at 3).
	// A pinned count is honored exactly: a relay-tree scenario shrinks its
	// Leaves to fit rather than silently inflating Producers.
	Producers int
	// Leaves overrides the drawn leaf count (relay-tree only).
	Leaves int
}

// GenerateWith is Generate with GenConfig overrides applied.
func GenerateWith(seed int64, cfg GenConfig) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{
		Seed:      seed,
		Topology:  Topology(rng.Intn(int(topoCount))),
		Producers: 1 + rng.Intn(3),
		Duration:  5 * time.Second,
		BeatEvery: time.Duration(10+rng.Intn(31)) * time.Millisecond,
		Poll:      time.Duration(10+rng.Intn(16)) * time.Millisecond,
		RingCap:   32 << rng.Intn(3), // 32, 64, 128
		Rollup:    time.Duration(100+rng.Intn(151)) * time.Millisecond,
	}
	if cfg.Producers > 0 {
		sc.Producers = cfg.Producers
	}
	if sc.Topology == TopoRelayTree {
		sc.Leaves = 1 + rng.Intn(2)
		if cfg.Leaves > 0 {
			sc.Leaves = cfg.Leaves
		}
		if sc.Producers < sc.Leaves {
			if cfg.Producers > 0 {
				sc.Leaves = sc.Producers
			} else {
				sc.Producers = sc.Leaves
			}
		}
		sc.MaxLink = time.Duration(rng.Intn(4)) * time.Millisecond
	}

	// Fault schedule: every scenario gets 1-2 producer faults; relay-tree
	// scenarios add exactly one network fault. Faults land in the middle
	// three-fifths of the run so there is always a clean lead-in (the
	// consumer establishes its cursor) and a clean tail (delivery drains).
	at := func() time.Duration {
		return time.Duration(float64(sc.Duration) * (0.2 + 0.55*rng.Float64()))
	}
	window := func() time.Duration {
		return time.Duration(float64(time.Second) * (0.3 + 0.9*rng.Float64()))
	}
	// The node-drain arc (relay-tree, half the scenarios): one producer
	// flatlines early and long enough that the balancer must drain it
	// (several whole rollup windows of silence), then recovers with enough
	// windows left before the scenario ends for the reclaim ramp to
	// complete. Drawn before the producer faults so those can be steered
	// off the drained producer — a restart or second silence landing on it
	// would make the drain/reclaim assertion unprovable.
	drained := -1
	if sc.Topology == TopoRelayTree && rng.Intn(2) == 0 {
		drained = rng.Intn(sc.Producers)
		sc.Events = append(sc.Events, Event{
			Kind:     EvNodeDrain,
			Producer: drained,
			At:       time.Duration(float64(sc.Duration) * (0.2 + 0.1*rng.Float64())),
			Arg:      time.Duration((3.5 + rng.Float64()) * float64(sc.Rollup)),
		})
	}
	producerFaults := []EventKind{EvRestart, EvRecreate, EvLap, EvSilence}
	for i, n := 0, 1+rng.Intn(2); i < n; i++ {
		if drained >= 0 && sc.Producers == 1 {
			break // the drain IS this scenario's producer fault
		}
		ev := Event{At: at(), Producer: rng.Intn(sc.Producers), Kind: producerFaults[rng.Intn(len(producerFaults))]}
		if drained >= 0 {
			// Steer the fault onto any other producer, preserving the draw.
			if ev.Producer = ev.Producer % (sc.Producers - 1); ev.Producer >= drained {
				ev.Producer++
			}
		}
		if ev.Kind == EvSilence {
			ev.Arg = window()
		}
		sc.Events = append(sc.Events, ev)
	}
	if sc.Topology == TopoRelayTree {
		ev := Event{At: at()}
		switch rng.Intn(6) {
		case 0:
			ev.Kind, ev.Link = EvLinkBlip, rng.Intn(sc.Leaves+1)
		case 1:
			ev.Kind, ev.Link = EvDropBytes, rng.Intn(sc.Leaves+1)
			ev.Arg = time.Duration(64 + rng.Intn(4096)) // byte budget, not a duration
		case 2:
			ev.Kind, ev.Link = EvPartition, rng.Intn(sc.Leaves+1)
			ev.Arg = window()
		case 3:
			ev.Kind, ev.Server = EvServerCrash, rng.Intn(sc.Leaves+1)
			ev.Arg = window()
		case 4:
			ev.Kind, ev.Server = EvListenerOutage, rng.Intn(sc.Leaves+1)
			ev.Arg = window()
		case 5:
			// The stall must outlast the server's write timeout, so the
			// blocked write actually fires it instead of merely bending.
			ev.Kind = EvSlowConsumer
			ev.Arg = serverWriteTimeout + window()
		}
		sc.Events = append(sc.Events, ev)
	}
	// Half the scenarios exercise the consumer cursor-resume path.
	if rng.Intn(2) == 0 {
		sc.Events = append(sc.Events, Event{At: at(), Kind: EvResume})
	}
	// The leaf-failover arc (relay-tree with a sibling to re-home onto,
	// half of the eligible scenarios): one leaf relay is decommissioned
	// mid-run through the runtime-membership path. Drawn after everything
	// else so earlier seeds' schedules are byte-identical with or without
	// this arc in the generator.
	if sc.Topology == TopoRelayTree && sc.Leaves >= 2 && rng.Intn(2) == 0 {
		sc.Events = append(sc.Events, Event{
			Kind:   EvLeafDie,
			At:     at(),
			Server: 1 + rng.Intn(sc.Leaves), // servers[0] is the root
		})
	}
	return sc
}

// Stats summarizes one scenario run, for matrix-level coverage assertions.
type Stats struct {
	SimSeconds float64
	Delivered  uint64
	Missed     uint64
	Lives      int
	Restarts   int
	Reconnects int
	Resumed    bool
	// Balancer accounting (relay-tree): drain and reclaim swaps observed
	// for the EvNodeDrain target, and the largest key-space fraction any
	// single table swap moved.
	Drains   int
	Reclaims int
	MaxRemap float64
	// Elastic-membership accounting (relay-tree): upstreams re-homed by an
	// EvLeafDie decommission, and records shed to backpressure across every
	// relay ring in the tree (always a refinement of Missed: shed <= missed
	// on any subscription that observed the loss).
	Handoffs int
	Shed     uint64
}

// Run executes the scenario and verifies the delivery contract. The
// returned error, if any, describes the first violated invariant; callers
// report the scenario's seed alongside it for exact replay.
func (sc Scenario) Run(dir string) (Stats, error) {
	switch sc.Topology {
	case TopoRelayTree:
		return sc.runRelayTree(dir)
	default:
		return sc.runLocal(dir)
	}
}

// settleDeadline bounds the real time a scenario may spend draining after
// its virtual duration elapses.
const settleDeadline = 20 * time.Second

// serverWriteTimeout is the write timeout every simulated relay server
// runs with, on the virtual clock: long enough that only a deliberately
// stalled consumer (EvSlowConsumer) trips it, short enough that the stall
// window can outlast it.
const serverWriteTimeout = time.Second

// producer is one simulated application: an in-process heartbeat,
// optionally sunk into a file, beating on the virtual clock and
// restartable (new heartbeat, new file life) by the fault schedule.
type producer struct {
	clk     *clock.Virtual
	path    string // empty: in-process only (TopoDirect)
	window  int
	ringCap int
	isLog   bool

	mu       sync.Mutex
	hb       *heartbeat.Heartbeat
	paused   bool
	silentTo time.Time
	restarts int
	heads    []uint64 // final head of each completed life
}

func newProducer(clk *clock.Virtual, path string, ringCap int) (*producer, error) {
	p := &producer{clk: clk, path: path, window: 20, ringCap: ringCap}
	return p, p.start()
}

// start creates the current life. Callers hold p.mu or own p exclusively.
func (p *producer) start() error {
	opts := []heartbeat.Option{heartbeat.WithClock(p.clk), heartbeat.WithCapacity(p.ringCap)}
	if p.path != "" {
		var sink heartbeat.Sink
		if p.isLog {
			w, err := hbfile.CreateLog(p.path, p.window)
			if err != nil {
				return err
			}
			sink = w
		} else {
			w, err := hbfile.Create(p.path, p.window, p.ringCap)
			if err != nil {
				return err
			}
			sink = w
		}
		opts = append(opts, heartbeat.WithSink(sink))
	}
	hb, err := heartbeat.New(p.window, opts...)
	if err != nil {
		return err
	}
	p.hb = hb
	return nil
}

// restart ends the current life and begins the next; flipVariant recreates
// the file in the other format. The producer mutex serializes it against
// the beat loop, so no beat lands between lives.
func (p *producer) restart(flipVariant bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hb.Close()
	p.heads = append(p.heads, p.hb.Count())
	if p.path != "" {
		os.Remove(p.path)
		if flipVariant {
			p.isLog = !p.isLog
		}
	}
	p.restarts++
	return p.start()
}

// beatLoop beats every interval on the virtual clock until stop.
func (p *producer) beatLoop(ctx context.Context, every time.Duration) {
	for clock.SleepCtx(ctx, p.clk, every) {
		p.mu.Lock()
		if !p.paused && p.clk.Now().After(p.silentTo) {
			p.hb.Beat()
		}
		p.mu.Unlock()
	}
}

// burst emits n beats at one virtual instant — the lap fault.
func (p *producer) burst(n int) {
	p.mu.Lock()
	for i := 0; i < n; i++ {
		p.hb.Beat()
	}
	p.mu.Unlock()
}

func (p *producer) silence(until time.Time) {
	p.mu.Lock()
	p.silentTo = until
	p.mu.Unlock()
}

// head returns the current life's published head.
func (p *producer) head() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.hb.Count()
}

func (p *producer) lives() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.restarts + 1
}

// visibleLifeHeads returns the published head of every life that a
// consumer can observe at all — the nonzero ones, in order. A life that
// published nothing is invisible: the stream's own cursor reset leaves no
// trace when there is no record to deliver (and its file, if any, is
// deleted by the next restart), so rotation accounting must skip it. An
// all-empty history yields one synthetic zero head: the tracker always
// reports at least its initial life.
func (p *producer) visibleLifeHeads() []uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []uint64
	for _, h := range p.heads {
		if h > 0 {
			out = append(out, h)
		}
	}
	if h := p.hb.Count(); h > 0 {
		out = append(out, h)
	}
	if len(out) == 0 {
		out = []uint64{0}
	}
	return out
}

// totalPublished sums every life's head — the true published total.
func (p *producer) totalPublished() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.hb.Count()
	for _, h := range p.heads {
		n += h
	}
	return n
}

// stream opens the consumer-side stream of the current life positioned
// after since (TopoDirect) or a follow tail over the file (TopoFile).
func (p *producer) stream(since uint64, poll time.Duration) (observer.Stream, error) {
	if p.path == "" {
		p.mu.Lock()
		defer p.mu.Unlock()
		return observer.HeartbeatStreamFrom(p.hb, since), nil
	}
	return observer.FollowFile(p.path, poll, since, p.clk)
}

func (p *producer) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hb.Close()
}

// lockedTracker guards a simcheck.Tracker shared between the consumer
// goroutine and the settle loop.
type lockedTracker struct {
	mu sync.Mutex
	tr *simcheck.Tracker
}

func (l *lockedTracker) absorb(b observer.Batch) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tr.Absorb(b)
}

func (l *lockedTracker) with(f func(tr *simcheck.Tracker)) {
	l.mu.Lock()
	f(l.tr)
	l.mu.Unlock()
}

// runLocal runs the direct and file topologies: one consumer stream (and
// one tracker) per producer, faults injected on the virtual schedule, and
// per-producer conservation checked at the end.
func (sc Scenario) runLocal(dir string) (Stats, error) {
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x5eed))
	clk := clock.NewVirtual()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go clk.AutoAdvance(ctx, 0)

	producers := make([]*producer, sc.Producers)
	trackers := make([]*lockedTracker, sc.Producers)
	resumes := make([]chan struct{}, sc.Producers)
	var consumerErr sync.Map // producer index -> error
	for i := range producers {
		path := ""
		if sc.Topology == TopoFile {
			path = filepath.Join(dir, fmt.Sprintf("p%d.hb", i))
		}
		p, err := newProducer(clk, path, sc.RingCap)
		if err != nil {
			return Stats{}, err
		}
		defer p.close()
		producers[i] = p
		trackers[i] = &lockedTracker{tr: simcheck.NewTracker(fmt.Sprintf("producer %d", i), 0)}
		resumes[i] = make(chan struct{}, 4)
	}

	var wg sync.WaitGroup
	for i := range producers {
		wg.Add(1)
		go func(p *producer) { defer wg.Done(); p.beatLoop(ctx, sc.BeatEvery) }(producers[i])
	}

	// One consumer loop per producer: absorb batches, reattach on EOF (a
	// direct producer restart closes its stream), resume from the cursor
	// when the schedule says so. The resume request is a sticky flag, not
	// just a context cancellation: by the Stream drain contract a Next
	// with pending data returns it even under a cancelled context, so a
	// signal that lands while data is flowing must survive until the loop
	// can act on it.
	for i := range producers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, tr := producers[i], trackers[i]
			var resumePending atomic.Bool
			stream, err := p.stream(0, sc.Poll)
			if err != nil {
				consumerErr.Store(i, err)
				return
			}
			defer closeStream(&stream)
			// reattach reopens the stream from the tracker's cursor —
			// the shared tail of the EOF (direct restart) and
			// cursor-resume paths; either way the reopened stream must
			// deliver no duplicate and no unaccounted gap.
			reattach := func() {
				closeStream(&stream)
				var cursor uint64
				tr.with(func(t *simcheck.Tracker) { cursor = t.Cursor() })
				for ctx.Err() == nil {
					ns, rerr := p.stream(cursor, sc.Poll)
					if rerr == nil {
						stream = ns
						return
					}
					time.Sleep(200 * time.Microsecond) //hbvet:allow wallclock -- producer mid-restart retry: real-time pacing because the harness goroutine races virtual time, which may be parked mid-restart
				}
			}
			for ctx.Err() == nil {
				segCtx, segCancel := context.WithCancel(ctx)
				stop := make(chan struct{})
				go func() {
					select {
					case <-resumes[i]:
						resumePending.Store(true)
						segCancel()
					case <-stop:
					}
				}()
				b, err := stream.Next(segCtx)
				close(stop)
				segCancel()
				if err == nil {
					if aerr := tr.absorb(b); aerr != nil {
						consumerErr.Store(i, aerr)
						return
					}
					if resumePending.Swap(false) {
						reattach()
					}
					continue
				}
				switch {
				case errors.Is(err, io.EOF), segCtx.Err() != nil && ctx.Err() == nil:
					resumePending.Store(false)
					reattach()
				case ctx.Err() != nil:
					return
				default:
					consumerErr.Store(i, err)
					return
				}
			}
		}(i)
	}

	// The fault scheduler: sleep to each event's virtual time, apply it.
	stats := Stats{}
	events := append([]Event(nil), sc.Events...)
	start := clk.Now()
	for _, ev := range sortedEvents(events) {
		if !sleepUntilVirtual(ctx, clk, start.Add(ev.At)) {
			break
		}
		if handled, err := sc.applyProducerFault(producers, rng, clk, ev); err != nil {
			return stats, err
		} else if handled {
			continue
		}
		if ev.Kind == EvResume {
			stats.Resumed = true
			for i := range resumes {
				resumes[i] <- struct{}{}
			}
		}
	}
	sleepUntilVirtual(ctx, clk, start.Add(sc.Duration))

	// Settle: stop beating (pause everything), then wait — in real time,
	// while virtual time keeps racing — until every consumer has drained
	// its producer's final life.
	for _, p := range producers {
		p.mu.Lock()
		p.paused = true
		p.mu.Unlock()
	}
	deadline := time.Now().Add(settleDeadline) //hbvet:allow wallclock -- settle deadline is a real-time bound on the harness itself, not on simulated components
	stable := 0
	for {
		done := true
		for i, p := range producers {
			// A final life that published nothing is fully drained by
			// definition (there is nothing to deliver, and no record will
			// ever arrive to advance the tracker into it); otherwise the
			// tracker must reach the life's head. Require the condition to
			// hold across a few samples — virtual time races on between
			// them, so a pending rotation at a numerically-equal cursor
			// still gets its polls in before the verdict runs.
			if head := p.head(); head != 0 {
				var cursor uint64
				trackers[i].with(func(t *simcheck.Tracker) { cursor = t.Cursor() })
				if cursor != head {
					done = false
					break
				}
			}
		}
		if done {
			stable++
		} else {
			stable = 0
		}
		if hasErr(&consumerErr) || stable >= 3 {
			break
		}
		if time.Now().After(deadline) { //hbvet:allow wallclock -- checks the harness real-time settle deadline set above
			return stats, settleFailure(producers, trackers)
		}
		time.Sleep(200 * time.Microsecond) //hbvet:allow wallclock -- real-time sampling cadence while virtual time races between samples
	}

	// Verdict.
	if err := firstErr(&consumerErr); err != nil {
		return stats, err
	}
	stats.SimSeconds = clk.Now().Sub(start).Seconds()
	for i, p := range producers {
		var err error
		trackers[i].with(func(t *simcheck.Tracker) {
			stats.Delivered += t.Delivered()
			stats.Missed += t.Missed()
			stats.Lives += len(t.Lives())
			stats.Restarts += p.lives() - 1
			if e := t.Err(); e != nil {
				err = e
				return
			}
			// The tracker can only observe lives that published anything
			// (empty lives leave no trace — see visibleLifeHeads), and
			// two back-to-back restarts can additionally hide a nonzero
			// middle life entirely (its file is deleted before the tail's
			// next stat). So the observed lives must form an
			// order-preserving sub-sequence of the true visible lives,
			// each observed head within its matched true head — more
			// observed lives than true ones, or a head no true life can
			// contain, means invented records. A no-restart run (exactly
			// one true life) still pins the count exactly and conserves
			// in full.
			trueHeads := p.visibleLifeHeads()
			lives := t.Lives()
			if len(lives) > len(trueHeads) {
				err = fmt.Errorf("producer %d: observed %d lives, only %d published (%+v vs heads %v)",
					i, len(lives), len(trueHeads), lives, trueHeads)
				return
			}
			ti := 0
			for li, l := range lives {
				for ti < len(trueHeads) && trueHeads[ti] < l.Head {
					ti++
				}
				if ti >= len(trueHeads) {
					err = fmt.Errorf("producer %d observed life %d: head %d fits no published life (lives %+v vs heads %v)",
						i, li, l.Head, lives, trueHeads)
					return
				}
				ti++
			}
			if p.lives() == 1 {
				if e := t.CheckConserved(p.totalPublished()); e != nil {
					err = e
					return
				}
			}
		})
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// runRelayTree runs the full stack: producers write files, leaf relays
// tail them and publish merged feeds on leaf servers, a root relay dials
// every leaf, and one consumer holds a raw and a rollup subscription to
// the root — all over the in-memory network under virtual time.
func (sc Scenario) runRelayTree(dir string) (Stats, error) {
	clk := clock.NewVirtual()
	nw := New(clk)
	rng := rand.New(rand.NewSource(sc.Seed ^ 0x5eed))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go clk.AutoAdvance(ctx, 0)

	// Producers, assigned round-robin to leaves.
	producers := make([]*producer, sc.Producers)
	for i := range producers {
		p, err := newProducer(clk, filepath.Join(dir, fmt.Sprintf("p%d.hb", i)), sc.RingCap)
		if err != nil {
			return Stats{}, err
		}
		defer p.close()
		producers[i] = p
	}
	var wg sync.WaitGroup
	for i := range producers {
		wg.Add(1)
		go func(p *producer) { defer wg.Done(); p.beatLoop(ctx, sc.BeatEvery) }(producers[i])
	}

	// Leaf tier: one relay + server per leaf. Retention is ample so the
	// only Missed in the system comes from producer-file laps.
	type node struct {
		relay *hbnet.Relay
		srv   *hbnet.Server
		addr  string
		mu    sync.Mutex
		// dead marks a leaf decommissioned by EvLeafDie: later scheduled
		// network faults that drew the same node become no-ops instead of
		// resurrecting its server. Only the schedule goroutine touches it.
		dead bool
	}
	newServerOn := func(n *node) error {
		// The servers run their deadline arithmetic on the virtual clock
		// (simnet conns evaluate deadlines on the same clock), so the write
		// timeout is a simulation event the slow-consumer fault can trip.
		srv := hbnet.NewServer(
			hbnet.WithHandshakeTimeout(2*time.Second),
			hbnet.WithServerClock(clk),
			hbnet.WithWriteTimeout(serverWriteTimeout))
		var err error
		if n.relay != nil {
			err = n.relay.PublishOn(srv, "merged", "rollup")
		}
		if err != nil {
			return err
		}
		ln, err := nw.Listen(n.addr)
		if err != nil {
			return err
		}
		go srv.Serve(ln)
		n.mu.Lock()
		n.srv = srv
		n.mu.Unlock()
		return nil
	}

	leaves := make([]*node, sc.Leaves)
	leafCancels := make([]context.CancelFunc, sc.Leaves)
	for li := range leaves {
		relay := hbnet.NewRelay(
			hbnet.WithRelayClock(clk),
			hbnet.WithRollupInterval(sc.Rollup),
			hbnet.WithMergedRetain(1<<17),
		)
		for pi, p := range producers {
			if pi%sc.Leaves != li {
				continue
			}
			if err := relay.AddFileUpstream(fmt.Sprintf("app%d", pi), p.path, sc.Poll); err != nil {
				return Stats{}, err
			}
		}
		n := &node{relay: relay, addr: fmt.Sprintf("leaf%d", li)}
		if err := newServerOn(n); err != nil {
			return Stats{}, err
		}
		leaves[li] = n
		// Each leaf's merge loop gets its own cancel so an EvLeafDie can
		// stop exactly that leaf while the rest of the tree runs on.
		lctx, lcancel := context.WithCancel(ctx)
		leafCancels[li] = lcancel
		go relay.Run(lctx)
		defer relay.Close()
		defer func(n *node) { n.mu.Lock(); n.srv.Close(); n.mu.Unlock() }(n)
	}

	// Root tier.
	root := hbnet.NewRelay(
		hbnet.WithRelayClock(clk),
		hbnet.WithRollupInterval(sc.Rollup),
		hbnet.WithMergedRetain(1<<17),
	)
	var rootUpstreams []*hbnet.Client
	for li, leaf := range leaves {
		nw.SetLatency("root", leaf.addr, time.Duration(rng.Int63n(int64(sc.MaxLink+1))))
		c, err := root.DialUpstream(fmt.Sprintf("leaf%d", li), leaf.addr, "merged",
			hbnet.WithDialer(nw.Host("root")),
			hbnet.WithClientClock(clk),
			hbnet.WithReconnectBackoff(20*time.Millisecond, 500*time.Millisecond))
		if err != nil {
			return Stats{}, err
		}
		rootUpstreams = append(rootUpstreams, c)
	}
	rootNode := &node{relay: root, addr: "root"}
	if err := newServerOn(rootNode); err != nil {
		return Stats{}, err
	}
	go root.Run(ctx)
	defer root.Close()
	defer func() { rootNode.mu.Lock(); rootNode.srv.Close(); rootNode.mu.Unlock() }()
	servers := append([]*node{rootNode}, leaves...)

	// The consumer: a raw subscription and a rollup subscription to the
	// root, each over the simulated network.
	nw.SetLatency("mon", "root", time.Duration(rng.Int63n(int64(sc.MaxLink+1))))
	dialOpts := func() []hbnet.ClientOption {
		return []hbnet.ClientOption{
			hbnet.WithDialer(nw.Host("mon")),
			hbnet.WithClientClock(clk),
			hbnet.WithReconnectBackoff(20*time.Millisecond, 500*time.Millisecond),
		}
	}
	tracker := &lockedTracker{tr: simcheck.NewTracker("relay consumer", 0)}
	var (
		consumerMu  sync.Mutex
		consumerErr error
		// reconnects/wireMissed accumulate the counters of every retired
		// raw client; curClient is the live one, so readers (the resume
		// forwarder, the verdict) always see the whole history as
		// retired + live.
		reconnects   int
		wireMissed   uint64
		curClient    *hbnet.Client
		resumed      bool
		rollups      simcheck.RollupAccount
		rollupMu     sync.Mutex
		resumeSignal = make(chan struct{}, 4)
		stallSignal  = make(chan time.Duration, 1)
	)
	setErr := func(err error) {
		consumerMu.Lock()
		if consumerErr == nil {
			consumerErr = err
		}
		consumerMu.Unlock()
	}
	// consumerWire reads the accumulated wire-level accounting, live
	// client included.
	consumerWire := func() (rec int, missed uint64) {
		consumerMu.Lock()
		defer consumerMu.Unlock()
		return reconnects + curClient.Reconnects(), wireMissed + curClient.Missed()
	}

	raw, err := hbnet.Dial("root", "merged", dialOpts()...)
	if err != nil {
		return Stats{}, err
	}
	curClient = raw
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := raw
		defer func() { client.Close() }()
		for ctx.Err() == nil {
			select {
			case d := <-stallSignal:
				// The slow-consumer fault: stop draining for d of virtual
				// time. The link's write limit fills, the server's write
				// blocks, and its virtual-clock write timeout disconnects
				// this subscriber — the reconnect below resumes it.
				sleepUntilVirtual(ctx, clk, clk.Now().Add(d))
			default:
			}
			b, err := client.Next(ctx)
			if err == nil {
				if aerr := tracker.absorb(b); aerr != nil {
					setErr(aerr)
					return
				}
				continue
			}
			if ctx.Err() != nil {
				return
			}
			if errors.Is(err, io.EOF) {
				// The consumer closed its own client for a cursor-resume:
				// redial from the delivered cursor. Anything else ending
				// the stream is a scenario failure.
				consumerMu.Lock()
				wasResume := resumed
				reconnects += client.Reconnects()
				wireMissed += client.Missed()
				consumerMu.Unlock()
				if !wasResume {
					setErr(fmt.Errorf("raw subscription ended unexpectedly"))
					return
				}
				cursor := client.Cursor()
				client.Close()
				for ctx.Err() == nil {
					nc, derr := hbnet.DialFrom("root", "merged", cursor, dialOpts()...)
					if derr == nil {
						consumerMu.Lock()
						client, curClient = nc, nc
						consumerMu.Unlock()
						break
					}
					time.Sleep(500 * time.Microsecond) //hbvet:allow wallclock -- real-time reconnect pacing: the consumer lives outside the virtual clock
				}
				continue
			}
			setErr(fmt.Errorf("raw subscription: %w", err))
			return
		}
	}()
	wg.Add(1)
	go func() { // forward resume requests by closing the live client
		defer wg.Done()
		for {
			select {
			case <-ctx.Done():
				return
			case <-resumeSignal:
				consumerMu.Lock()
				resumed = true
				c := curClient
				consumerMu.Unlock()
				c.Close()
			}
		}
	}()

	rollupC, err := hbnet.DialRollup("root", "rollup", dialOpts()...)
	if err != nil {
		return Stats{}, err
	}
	defer rollupC.Close()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			rb, err := rollupC.NextRollups(ctx)
			if err != nil {
				if ctx.Err() == nil && !errors.Is(err, io.EOF) {
					setErr(fmt.Errorf("rollup subscription: %w", err))
				}
				return
			}
			rollupMu.Lock()
			rollups.AbsorbRollups(rb.Rollups, rb.Missed)
			rollupMu.Unlock()
		}
	}()

	// The balancer under test: a live routing table driven by each LEAF's
	// own rollup feed (the root's rollups are per-leaf aggregates; only
	// the leaves emit per-producer windows), exactly how a fleet-scale
	// balancer would watch its backends. Every swap is checked against the
	// remap invariant; when the schedule contains an EvNodeDrain, the
	// verdict additionally requires the full drain → minimal reshuffle →
	// reclaim arc to have completed for the drained producer's app.
	drainApp := ""
	for _, ev := range sc.Events {
		if ev.Kind == EvNodeDrain {
			drainApp = fmt.Sprintf("app%d", ev.Producer)
		}
	}
	var (
		balMu    sync.Mutex
		balErr   error
		drains   int
		reclaims int
		maxRemap float64
	)
	updater := balance.NewUpdater(balance.New(balance.WithBuckets(512)), balance.DefaultPolicy(),
		balance.WithOnSwap(func(sw balance.Swap) {
			balMu.Lock()
			defer balMu.Unlock()
			if err := simcheck.CheckRemap("balancer swap "+sw.Node, sw.Frac(), sw.Share); err != nil && balErr == nil {
				balErr = err
			}
			if f := sw.Frac(); f > maxRemap {
				maxRemap = f
			}
			if sw.Node == drainApp {
				if sw.New == 0 {
					drains++
				}
				if sw.New == 1 && sw.Old < 1 && drains > 0 {
					reclaims++
				}
			}
		}))
	for _, leaf := range leaves {
		nw.SetLatency("mon", leaf.addr, time.Duration(rng.Int63n(int64(sc.MaxLink+1))))
		feed := hbnet.DialRollupFeed(leaf.addr, "rollup", dialOpts()...)
		wg.Add(1)
		go func(feed hbnet.RollupFeed) {
			defer wg.Done()
			// The client under the feed reconnects by cursor on its own;
			// this loop only survives a torn-down open (a leaf listener
			// outage racing the initial dial), resuming from the last
			// delivered emission so no window is double-absorbed.
			var since uint64
			for ctx.Err() == nil {
				feed.Consume(ctx, since, func(b hbnet.RollupBatch) error {
					since = b.Cursor
					updater.Absorb(b.Rollups...)
					return nil
				})
				if ctx.Err() != nil {
					return
				}
				time.Sleep(500 * time.Microsecond) //hbvet:allow wallclock -- real-time poll cadence for the rollup feed while virtual time races
			}
		}(feed)
	}

	// The fault scheduler.
	stats := Stats{}
	linkName := func(i int) (a, b string) {
		if i == 0 {
			return "mon", "root"
		}
		return "root", leaves[i-1].addr
	}
	start := clk.Now()
schedule:
	for _, ev := range sortedEvents(append([]Event(nil), sc.Events...)) {
		if !sleepUntilVirtual(ctx, clk, start.Add(ev.At)) {
			break
		}
		if handled, err := sc.applyProducerFault(producers, rng, clk, ev); err != nil {
			return stats, err
		} else if handled {
			continue
		}
		switch ev.Kind {
		case EvResume:
			stats.Resumed = true
			resumeSignal <- struct{}{}
		case EvLinkBlip:
			a, b := linkName(ev.Link)
			nw.CutLink(a, b)
		case EvDropBytes:
			a, b := linkName(ev.Link)
			nw.DropAfterBytes(a, b, int64(ev.Arg))
		case EvPartition:
			a, b := linkName(ev.Link)
			nw.Partition(a, b)
			if !sleepUntilVirtual(ctx, clk, clk.Now().Add(ev.Arg)) {
				break schedule
			}
			nw.Heal(a, b)
		case EvServerCrash:
			n := servers[ev.Server]
			if n.dead {
				continue // decommissioned by an earlier EvLeafDie: nothing to crash
			}
			n.mu.Lock()
			n.srv.Close()
			n.mu.Unlock()
			if !sleepUntilVirtual(ctx, clk, clk.Now().Add(ev.Arg)) {
				break schedule
			}
			if err := newServerOn(n); err != nil {
				return stats, fmt.Errorf("restore server %s: %w", n.addr, err)
			}
		case EvListenerOutage:
			n := servers[ev.Server]
			if n.dead {
				continue // decommissioned by an earlier EvLeafDie
			}
			nw.SetListenerDown(n.addr, true)
			// Blip the links into the downed listener so clients must
			// redial into the outage and back off until it lifts.
			if n == rootNode {
				nw.CutLink("mon", "root")
			} else {
				nw.CutLink("root", n.addr)
			}
			if !sleepUntilVirtual(ctx, clk, clk.Now().Add(ev.Arg)) {
				break schedule
			}
			nw.SetListenerDown(n.addr, false)
		case EvSlowConsumer:
			// Bound the consumer link's socket buffer, then stall the
			// consumer past the server's write timeout. The limit lifts
			// when the window ends; the resumed consumer drains whatever
			// is pending, notices the disconnect, and reconnects.
			nw.SetWriteLimit("mon", "root", 512)
			stallSignal <- ev.Arg
			if !sleepUntilVirtual(ctx, clk, clk.Now().Add(ev.Arg)) {
				break schedule
			}
			nw.SetWriteLimit("mon", "root", 0)
		case EvLeafDie:
			// Decommission one leaf through the runtime-membership path:
			// re-home every producer upstream to a sibling with its cursor
			// preserved, let the root drain what the dying leaf still holds,
			// remove the root's upstream for it, then shut the node down.
			li := ev.Server - 1
			dying, sibling := leaves[li], leaves[(li+1)%sc.Leaves]
			for _, app := range dying.relay.Apps() {
				if err := hbnet.RebalanceStream(dying.relay, sibling.relay, app); err != nil {
					return stats, fmt.Errorf("leaf-die: re-home %s: %w", app, err)
				}
				stats.Handoffs++
			}
			// With its upstreams detached the dying head is frozen; wait (in
			// real time, while virtual time races on) until the root's client
			// has drained every record the leaf ever sequenced, so removal
			// loses nothing. The root↔leaf link may be mid-blip or mid-drop
			// here — the client's own reconnect covers that.
			dyingHead := dying.relay.MergedHead()
			handoffDeadline := time.Now().Add(settleDeadline) //hbvet:allow wallclock -- real-time bound on the harness's own drain wait, not on simulated components
			for rootUpstreams[li].Cursor() < dyingHead {
				if time.Now().After(handoffDeadline) { //hbvet:allow wallclock -- checks the harness real-time drain deadline set above
					return stats, fmt.Errorf("leaf-die: root drained %d of %d from %s before deadline",
						rootUpstreams[li].Cursor(), dyingHead, dying.addr)
				}
				time.Sleep(500 * time.Microsecond) //hbvet:allow wallclock -- real-time poll cadence while virtual time races
			}
			if _, err := root.RemoveUpstream(fmt.Sprintf("leaf%d", li)); err != nil {
				return stats, fmt.Errorf("leaf-die: remove root upstream: %w", err)
			}
			leafCancels[li]()
			dying.mu.Lock()
			dying.srv.Close()
			dying.mu.Unlock()
			dying.relay.Close()
			dying.dead = true
		}
	}
	sleepUntilVirtual(ctx, clk, start.Add(sc.Duration))

	// Settle: pause producers, then wait until the pipeline drains and
	// every hop agrees — consumer == root head == Σ leaf heads, rollups
	// conserve — and the totals are stable while virtual time races on.
	for _, p := range producers {
		p.mu.Lock()
		p.paused = true
		p.mu.Unlock()
	}
	deadline := time.Now().Add(settleDeadline) //hbvet:allow wallclock -- settle deadline is a real-time bound on the harness itself, not on simulated components
	var lastTotal uint64
	stable := 0
	for {
		consumerMu.Lock()
		errNow := consumerErr
		consumerMu.Unlock()
		if errNow != nil {
			break
		}
		var consumerTotal uint64
		tracker.with(func(t *simcheck.Tracker) { consumerTotal = t.Delivered() + t.Missed() })
		rootHead := root.MergedHead()
		var leafSum uint64
		for _, leaf := range leaves {
			leafSum += leaf.relay.MergedHead()
		}
		rollupMu.Lock()
		rollupTotal := rollups.Records + rollups.Missed
		rollupMu.Unlock()
		// A node-drain scenario must also have completed its arc: the
		// balancer's rollup subscriptions ride the same faulted network,
		// so the drained app's reclaim can trail the record pipeline.
		balMu.Lock()
		balSettled := drainApp == "" || balErr != nil || (drains > 0 && reclaims > 0)
		balMu.Unlock()
		if consumerTotal == rootHead && rootHead == leafSum && rollupTotal == rootHead && consumerTotal > 0 && balSettled {
			if consumerTotal == lastTotal {
				stable++
				if stable >= 5 {
					break
				}
			} else {
				stable = 0
			}
			lastTotal = consumerTotal
		} else {
			stable = 0
		}
		if time.Now().After(deadline) { //hbvet:allow wallclock -- checks the harness real-time settle deadline set above
			return stats, fmt.Errorf("relay settle timed out: consumer=%d rootHead=%d leafSum=%d rollupTotal=%d",
				consumerTotal, rootHead, leafSum, rollupTotal)
		}
		time.Sleep(2 * time.Millisecond) //hbvet:allow wallclock -- real-time sampling cadence while virtual time races between samples
	}

	// Verdict.
	consumerMu.Lock()
	errNow := consumerErr
	consumerMu.Unlock()
	if errNow != nil {
		return stats, errNow
	}
	stats.SimSeconds = clk.Now().Sub(start).Seconds()
	var verdict error
	tracker.with(func(t *simcheck.Tracker) {
		stats.Delivered = t.Delivered()
		stats.Missed = t.Missed()
		stats.Lives = len(t.Lives())
		if e := t.Err(); e != nil {
			verdict = e
			return
		}
		// Relay histories survive every injected fault, so the consumer
		// must observe exactly one hop-local sequence space.
		if e := t.CheckLives(1); e != nil {
			verdict = e
			return
		}
		if e := t.CheckConserved(root.MergedHead()); e != nil {
			verdict = e
			return
		}
	})
	if verdict != nil {
		return stats, verdict
	}
	rollupMu.Lock()
	verdict = rollups.CheckConserved("rollups", root.MergedHead())
	rollupMu.Unlock()
	if verdict != nil {
		return stats, verdict
	}
	// Balancer verdict: every swap stayed inside the remap bound, and a
	// scheduled node-drain completed its whole arc.
	balMu.Lock()
	stats.Drains, stats.Reclaims, stats.MaxRemap = drains, reclaims, maxRemap
	balVerdict := balErr
	balMu.Unlock()
	if balVerdict != nil {
		return stats, balVerdict
	}
	if drainApp != "" {
		if stats.Drains == 0 {
			return stats, fmt.Errorf("node-drain scenario: balancer never drained %s (weight now %.2f)", drainApp, updater.Weight(drainApp))
		}
		if stats.Reclaims == 0 {
			return stats, fmt.Errorf("node-drain scenario: %s drained but never reclaimed full weight (weight now %.2f)", drainApp, updater.Weight(drainApp))
		}
	}
	for _, p := range producers {
		stats.Restarts += p.lives() - 1
	}
	for _, c := range rootUpstreams {
		stats.Reconnects += c.Reconnects()
	}
	stats.Shed = root.Shed()
	for _, leaf := range leaves {
		stats.Shed += leaf.relay.Shed()
	}
	if err := simcheck.CheckShed("relay tree", stats.Shed, stats.Missed); err != nil {
		return stats, err
	}
	// Wire-accounting parity: the client's own Missed tally (across every
	// retired client plus the live one) must agree with what the tracker
	// summed out of the delivered batches — the two independent ledgers of
	// the same loss.
	conRec, conMissed := consumerWire()
	stats.Reconnects += conRec
	if conMissed != stats.Missed {
		return stats, fmt.Errorf("wire accounting disagrees with tracker: client missed %d, tracker missed %d",
			conMissed, stats.Missed)
	}
	return stats, nil
}

// applyProducerFault applies the producer-fault arms of the schedule —
// the one switch both topology runners share, so the direct/file and
// relay-tree runs cannot drift apart in fault semantics. It reports
// whether it handled the event (network faults are the relay runner's
// own).
func (sc Scenario) applyProducerFault(producers []*producer, rng *rand.Rand, clk *clock.Virtual, ev Event) (bool, error) {
	switch ev.Kind {
	case EvRestart, EvRecreate:
		if err := producers[ev.Producer].restart(ev.Kind == EvRecreate); err != nil {
			return true, fmt.Errorf("restart producer %d: %w", ev.Producer, err)
		}
	case EvLap:
		producers[ev.Producer].burst(3*sc.RingCap + rng.Intn(sc.RingCap))
	case EvSilence, EvNodeDrain:
		// A node-drain is mechanically a silence window; what distinguishes
		// it is the balancer assertions the relay-tree runner makes around
		// it (drain observed, remap bounded, reclaim completed).
		producers[ev.Producer].silence(clk.Now().Add(ev.Arg))
	default:
		return false, nil
	}
	return true, nil
}

func sortedEvents(events []Event) []Event {
	for i := 1; i < len(events); i++ { // insertion sort: schedules are tiny
		for j := i; j > 0 && events[j].At < events[j-1].At; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
	return events
}

// sleepUntilVirtual blocks until the virtual clock reaches t (or ctx
// ends); false means cancelled.
func sleepUntilVirtual(ctx context.Context, clk *clock.Virtual, t time.Time) bool {
	for {
		d := t.Sub(clk.Now())
		if d <= 0 {
			return true
		}
		if !clock.SleepCtx(ctx, clk, d) {
			return false
		}
	}
}

func closeStream(s *observer.Stream) {
	if c, ok := (*s).(io.Closer); ok && c != nil {
		c.Close()
	}
}

func hasErr(m *sync.Map) bool {
	found := false
	m.Range(func(_, _ interface{}) bool { found = true; return false })
	return found
}

func firstErr(m *sync.Map) error {
	var err error
	m.Range(func(_, v interface{}) bool { err = v.(error); return false })
	return err
}

func settleFailure(producers []*producer, trackers []*lockedTracker) error {
	parts := ""
	for i, p := range producers {
		var cursor uint64
		trackers[i].with(func(t *simcheck.Tracker) { cursor = t.Cursor() })
		parts += fmt.Sprintf(" p%d[cursor=%d head=%d]", i, cursor, p.head())
	}
	return fmt.Errorf("settle timed out:%s", parts)
}
