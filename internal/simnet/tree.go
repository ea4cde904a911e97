package simnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/clock"
	"repro/hbnet"
	"repro/internal/simcheck"
	"repro/observer"
)

// relayTree is the relay tier both tree runners build — runRelayTree over
// producer files, ScaleScenario.Run over a synthetic fleet: leaf relays
// serving their merged and rollup feeds, a root relay dialing every leaf's
// merged feed, and one consumer ("mon") holding a raw subscription, checked
// by a simcheck.Tracker, and a rollup subscription, summed into a
// RollupAccount, to the root. Everything rides one virtual clock and one
// simulated network. What the runners do differently arrives through
// treeConfig, and the runner adds anything else (extra root feeds, fault
// injection) between newRelayTree and start.
type relayTree struct {
	cfg           treeConfig
	clk           *clock.Virtual
	nw            *Network
	ctx           context.Context
	cancel        context.CancelFunc
	leaves        []*treeNode
	root          *treeNode
	rootUpstreams []*hbnet.Client // the root's merged-feed client per leaf

	tracker *lockedTracker
	stalls  chan time.Duration // stop draining the raw subscription for a virtual window

	mu  sync.Mutex // guards the consumer state below
	err error
	// client is the live raw subscription; reconnects and wireMissed sum
	// the counters of every client a resume retired, so retired + live is
	// the whole history.
	client     *hbnet.Client
	reconnects int
	wireMissed uint64
	resumed    bool
	rollupC    *hbnet.Client
	rollups    simcheck.RollupAccount
}

// treeConfig is what the tree runners set differently.
type treeConfig struct {
	name   string // labels the tree's errors
	leaves int
	rollup time.Duration // every relay's rollup interval
	retain int           // every relay's merged retention
	// serverOpts is added to every server's handshake timeout and clock.
	serverOpts []hbnet.ServerOption
	// link draws one link's latency: root→leaf for each leaf in order,
	// then mon→root.
	link func() time.Duration
	// attach registers leaf li's share of the producers on its relay.
	attach func(li int, leaf *hbnet.Relay) error
	// rollupFeed names the root rollup feed the consumer subscribes.
	rollupFeed string
	// onBatch and onRollups, when set, see every delivery to the
	// consumer's raw and rollup subscriptions.
	onBatch   func(now time.Time, b observer.Batch)
	onRollups func(rb hbnet.RollupBatch)
}

// treeNode is one relay and the server publishing its feeds at addr.
type treeNode struct {
	relay  *hbnet.Relay
	addr   string
	srv    *hbnet.Server
	cancel context.CancelFunc // stops the relay's Run
	// dead marks a leaf decommissioned by EvLeafDie: later scheduled
	// faults that drew it become no-ops instead of resurrecting its server.
	dead bool
}

// newRelayTree brings up the leaves, each running and serving, and the
// root relay with its merged upstreams and its server; start runs the root
// and its consumer. Only the goroutine that calls it touches the nodes'
// servers afterwards.
func newRelayTree(ctx context.Context, clk *clock.Virtual, nw *Network, cfg treeConfig) (t *relayTree, err error) {
	t = &relayTree{
		cfg: cfg, clk: clk, nw: nw,
		tracker: &lockedTracker{tr: simcheck.NewTracker(cfg.name+" consumer", 0)},
		stalls:  make(chan time.Duration, 1),
	}
	t.ctx, t.cancel = context.WithCancel(ctx)
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	newRelay := func() *hbnet.Relay {
		return hbnet.NewRelay(
			hbnet.WithRelayClock(clk),
			hbnet.WithRollupInterval(cfg.rollup),
			hbnet.WithMergedRetain(cfg.retain))
	}
	for li := 0; li < cfg.leaves; li++ {
		n := &treeNode{relay: newRelay(), addr: fmt.Sprintf("leaf%d", li)}
		t.leaves = append(t.leaves, n)
		if err := cfg.attach(li, n.relay); err != nil {
			return t, err
		}
		if err := t.serve(n); err != nil {
			return t, err
		}
		// Each leaf's Run gets its own cancel, so an EvLeafDie stops exactly
		// that leaf while the rest of the tree runs on.
		var lctx context.Context
		lctx, n.cancel = context.WithCancel(t.ctx)
		go n.relay.Run(lctx)
	}
	t.root = &treeNode{relay: newRelay(), addr: "root"}
	for li, leaf := range t.leaves {
		nw.SetLatency("root", leaf.addr, cfg.link())
		c, err := t.root.relay.DialUpstream(fmt.Sprintf("leaf%d", li), leaf.addr, "merged", t.clientOpts("root")...)
		if err != nil {
			return t, err
		}
		t.rootUpstreams = append(t.rootUpstreams, c)
	}
	return t, t.serve(t.root)
}

// serve starts a server publishing n's merged and rollup feeds at n.addr —
// at construction, and again when a fault restores a crashed server.
func (t *relayTree) serve(n *treeNode) error {
	srv := hbnet.NewServer(append([]hbnet.ServerOption{
		hbnet.WithHandshakeTimeout(2 * time.Second),
		hbnet.WithServerClock(t.clk),
	}, t.cfg.serverOpts...)...)
	if err := n.relay.PublishOn(srv, "merged", "rollup"); err != nil {
		return err
	}
	ln, err := t.nw.Listen(n.addr)
	if err != nil {
		return err
	}
	go srv.Serve(ln)
	n.srv = srv
	return nil
}

// clientOpts dials from host over the simulated network on the tree's
// clock.
func (t *relayTree) clientOpts(host string) []hbnet.ClientOption {
	return []hbnet.ClientOption{
		hbnet.WithDialer(t.nw.Host(host)),
		hbnet.WithClientClock(t.clk),
		hbnet.WithReconnectBackoff(20*time.Millisecond, 500*time.Millisecond),
	}
}

// start runs the root relay and subscribes the consumer to it.
func (t *relayTree) start() error {
	go t.root.relay.Run(t.ctx)
	t.nw.SetLatency("mon", "root", t.cfg.link())
	raw, err := hbnet.Dial("root", "merged", t.clientOpts("mon")...)
	if err != nil {
		return err
	}
	t.client = raw
	go t.consumeRaw(raw)
	if t.rollupC, err = hbnet.DialRollup("root", t.cfg.rollupFeed, t.clientOpts("mon")...); err != nil {
		return err
	}
	go t.consumeRollups()
	return nil
}

func (t *relayTree) setErr(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

func (t *relayTree) consumerErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// consumeRaw absorbs the raw subscription into the tracker. A stall stops
// it draining for a window of virtual time, so the link's write limit fills
// and the server's write timeout disconnects it; a resume closes the live
// client, and the EOF that follows redials from the delivered cursor.
// Anything else ending the stream fails the run.
func (t *relayTree) consumeRaw(client *hbnet.Client) {
	defer func() { client.Close() }()
	for t.ctx.Err() == nil {
		select {
		case d := <-t.stalls:
			sleepUntilVirtual(t.ctx, t.clk, t.clk.Now().Add(d))
		default:
		}
		b, err := client.Next(t.ctx)
		if err == nil {
			if t.cfg.onBatch != nil {
				t.cfg.onBatch(t.clk.Now(), b)
			}
			if aerr := t.tracker.absorb(b); aerr != nil {
				t.setErr(aerr)
				return
			}
			continue
		}
		if t.ctx.Err() != nil {
			return
		}
		if !errors.Is(err, io.EOF) {
			t.setErr(fmt.Errorf("raw subscription: %w", err))
			return
		}
		t.mu.Lock()
		wasResume := t.resumed
		t.reconnects += client.Reconnects()
		t.wireMissed += client.Missed()
		t.mu.Unlock()
		if !wasResume {
			t.setErr(fmt.Errorf("raw subscription ended unexpectedly"))
			return
		}
		cursor := client.Cursor()
		client.Close()
		for t.ctx.Err() == nil {
			nc, derr := hbnet.DialFrom("root", "merged", cursor, t.clientOpts("mon")...)
			if derr == nil {
				t.mu.Lock()
				client, t.client = nc, nc
				t.mu.Unlock()
				break
			}
			time.Sleep(500 * time.Microsecond) //hbvet:allow wallclock -- real-time reconnect pacing: the consumer lives outside the virtual clock
		}
	}
}

// resume closes the live raw client; consumeRaw redials from its cursor.
func (t *relayTree) resume() {
	t.mu.Lock()
	t.resumed = true
	c := t.client
	t.mu.Unlock()
	c.Close()
}

func (t *relayTree) consumeRollups() {
	for t.ctx.Err() == nil {
		rb, err := t.rollupC.NextRollups(t.ctx)
		if err != nil {
			if t.ctx.Err() == nil && !errors.Is(err, io.EOF) {
				t.setErr(fmt.Errorf("rollup subscription: %w", err))
			}
			return
		}
		t.mu.Lock()
		t.rollups.AbsorbRollups(rb.Rollups, rb.Missed)
		t.mu.Unlock()
		if t.cfg.onRollups != nil {
			t.cfg.onRollups(rb)
		}
	}
}

// consumerWire reads the consumer's wire-level accounting, live client
// included.
func (t *relayTree) consumerWire() (reconnects int, missed uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reconnects + t.client.Reconnects(), t.wireMissed + t.client.Missed()
}

// settle waits, in real time while virtual time races on, until every hop
// agrees on one stable total — consumer == root head == Σ leaf heads ==
// rollup total — and the runner's own agreed(total) holds too, or until
// the consumer fails. agreed also returns its state for the timeout error.
func (t *relayTree) settle(agreed func(total uint64) (bool, string)) error {
	var last uint64
	var state string
	err := waitReal(settleDeadline, 5, func() bool {
		if t.consumerErr() != nil {
			return true
		}
		var consumer uint64
		t.tracker.with(func(tr *simcheck.Tracker) { consumer = tr.Delivered() + tr.Missed() })
		rootHead := t.root.relay.MergedHead()
		var leafSum uint64
		for _, leaf := range t.leaves {
			leafSum += leaf.relay.MergedHead()
		}
		t.mu.Lock()
		rollupTotal := t.rollups.Records + t.rollups.Missed
		t.mu.Unlock()
		ok, extra := agreed(consumer)
		state = fmt.Sprintf("consumer=%d rootHead=%d leafSum=%d rollupTotal=%d%s", consumer, rootHead, leafSum, rollupTotal, extra)
		if !ok || consumer == 0 || consumer != rootHead || rootHead != leafSum || rollupTotal != rootHead {
			return false
		}
		stable := consumer == last
		last = consumer
		return stable
	}, func() error { return fmt.Errorf("%s settle timed out: %s", t.cfg.name, state) })
	if err != nil {
		return err
	}
	return t.consumerErr()
}

// treeTally is what the shared verdict counted.
type treeTally struct {
	delivered, missed, shed uint64
	lives                   int
}

// verdict checks the ledger every tree shares once it has settled: the
// tracker saw one dense, duplicate-free life conserving the root's head,
// the rollups conserve it too, and the records shed across every relay
// ring stay within what the consumer counted missed.
func (t *relayTree) verdict() (treeTally, error) {
	var tally treeTally
	rootHead := t.root.relay.MergedHead()
	var err error
	t.tracker.with(func(tr *simcheck.Tracker) {
		tally.delivered, tally.missed, tally.lives = tr.Delivered(), tr.Missed(), len(tr.Lives())
		if err = tr.Err(); err != nil {
			return
		}
		// Relay histories survive every injected fault, so the consumer
		// must observe exactly one hop-local sequence space.
		if err = tr.CheckLives(1); err != nil {
			return
		}
		err = tr.CheckConserved(rootHead)
	})
	if err != nil {
		return tally, err
	}
	t.mu.Lock()
	err = t.rollups.CheckConserved(t.cfg.name+" rollups", rootHead)
	t.mu.Unlock()
	if err != nil {
		return tally, err
	}
	tally.shed = t.root.relay.Shed()
	for _, leaf := range t.leaves {
		tally.shed += leaf.relay.Shed()
	}
	return tally, simcheck.CheckShed(t.cfg.name+" tree", tally.shed, tally.missed)
}

// close stops the tree's goroutines and closes whatever was built.
func (t *relayTree) close() {
	t.cancel()
	if t.rollupC != nil {
		t.rollupC.Close()
	}
	for _, n := range append([]*treeNode{t.root}, t.leaves...) {
		if n == nil {
			continue
		}
		if n.srv != nil {
			n.srv.Close()
		}
		n.relay.Close()
	}
}
