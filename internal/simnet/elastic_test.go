package simnet

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/clock"
	"repro/hbnet"
	"repro/heartbeat"
	"repro/internal/simcheck"
)

// These tests pin the elastic-membership seams deterministically, where the
// scenario matrix hits them probabilistically: a full leaf decommission
// with cursor-preserving failover (no duplicate, no gap, names removed at
// every hop), and explicit backpressure shedding whose count exactly
// accounts the gap a lagging subscriber observed.

// elasticHarness is the shared fixture: a virtual clock, a simulated
// network, and real-time waits that poll while virtual time races.
type elasticHarness struct {
	t   *testing.T
	clk *clock.Virtual
	nw  *Network
	ctx context.Context
}

func newElasticHarness(t *testing.T) *elasticHarness {
	t.Helper()
	clk := clock.NewVirtual()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go clk.AutoAdvance(ctx, 0)
	return &elasticHarness{t: t, clk: clk, nw: New(clk), ctx: ctx}
}

func (h *elasticHarness) opts(host string) []hbnet.ClientOption {
	return []hbnet.ClientOption{
		hbnet.WithDialer(h.nw.Host(host)),
		hbnet.WithClientClock(h.clk),
		hbnet.WithReconnectBackoff(20*time.Millisecond, 200*time.Millisecond),
	}
}

// producer brings up one heartbeat published by its own server at addr.
func (h *elasticHarness) producer(addr string) *heartbeat.Heartbeat {
	h.t.Helper()
	hb, err := heartbeat.New(20, heartbeat.WithClock(h.clk), heartbeat.WithCapacity(1<<12))
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(func() { hb.Close() })
	srv := hbnet.NewServer(hbnet.WithServerClock(h.clk))
	if err := srv.PublishHeartbeat("app", hb); err != nil {
		h.t.Fatal(err)
	}
	ln, err := h.nw.Listen(addr)
	if err != nil {
		h.t.Fatal(err)
	}
	go srv.Serve(ln)
	h.t.Cleanup(func() { srv.Close() })
	return hb
}

// relay brings up a running relay serving its merged and rollup feeds at
// addr, returning the relay and its server (for explicit decommission).
func (h *elasticHarness) relay(addr string, ropts ...hbnet.RelayOption) (*hbnet.Relay, *hbnet.Server) {
	h.t.Helper()
	opts := append([]hbnet.RelayOption{
		hbnet.WithRelayClock(h.clk),
		hbnet.WithRollupInterval(100 * time.Millisecond),
		hbnet.WithMergedRetain(1 << 16),
	}, ropts...)
	relay := hbnet.NewRelay(opts...)
	srv := hbnet.NewServer(hbnet.WithServerClock(h.clk))
	if err := relay.PublishOn(srv, "merged", "rollup"); err != nil {
		h.t.Fatal(err)
	}
	ln, err := h.nw.Listen(addr)
	if err != nil {
		h.t.Fatal(err)
	}
	go srv.Serve(ln)
	go relay.Run(h.ctx)
	h.t.Cleanup(func() { srv.Close(); relay.Close() })
	return relay, srv
}

func (h *elasticHarness) waitFor(desc string, cond func() bool) {
	h.t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			h.t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(time.Millisecond)
	}
}

func beat(hb *heartbeat.Heartbeat, n int) {
	for i := 0; i < n; i++ {
		hb.Beat()
	}
	hb.Flush()
}

// TestLeafDieFailoverDeterministic is the focused leaf-failover arc: two
// producers on two leaves, a consumer on the root, then leaf0 dies — its
// upstream re-homes to leaf1 with the cursor preserved (hbnet.Rebalance),
// the root drains and removes the dead leaf, and both producers keep
// beating. The consumer must see every record exactly once: one life, zero
// missed, totals conserved against the surviving topology.
func TestLeafDieFailoverDeterministic(t *testing.T) {
	h := newElasticHarness(t)
	p0 := h.producer("prod0")
	p1 := h.producer("prod1")

	leaf0, leaf0Srv := h.relay("leaf0")
	leaf1, _ := h.relay("leaf1")
	if _, err := leaf0.DialUpstream("app0", "prod0", "app", h.opts("leaf0")...); err != nil {
		t.Fatal(err)
	}
	if _, err := leaf1.DialUpstream("app1", "prod1", "app", h.opts("leaf1")...); err != nil {
		t.Fatal(err)
	}

	root, _ := h.relay("root")
	rootClients := make([]*hbnet.Client, 2)
	for li, leaf := range []string{"leaf0", "leaf1"} {
		c, err := root.DialUpstream(leaf, leaf, "merged", h.opts("root")...)
		if err != nil {
			t.Fatal(err)
		}
		rootClients[li] = c
	}

	// The consumer: a raw root subscription folded into the dense/dup
	// ledger.
	tracker := &lockedTracker{tr: simcheck.NewTracker("failover consumer", 0)}
	var consumerErr error
	var consumerMu sync.Mutex
	raw, err := hbnet.Dial("root", "merged", h.opts("mon")...)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	go func() {
		for h.ctx.Err() == nil {
			b, err := raw.Next(h.ctx)
			if err != nil {
				if h.ctx.Err() == nil && !errors.Is(err, io.EOF) {
					consumerMu.Lock()
					consumerErr = err
					consumerMu.Unlock()
				}
				return
			}
			if aerr := tracker.absorb(b); aerr != nil {
				consumerMu.Lock()
				consumerErr = aerr
				consumerMu.Unlock()
				return
			}
		}
	}()
	consumerTotal := func() uint64 {
		var total uint64
		tracker.with(func(tr *simcheck.Tracker) { total = tr.Delivered() + tr.Missed() })
		return total
	}

	const phase = 500
	beat(p0, phase)
	beat(p1, phase)
	h.waitFor("phase 1 delivery", func() bool { return consumerTotal() == 2*phase })

	// The failover: re-home app0 onto leaf1 at its consumed cursor, let
	// the root drain leaf0's frozen history, then remove leaf0 at the root
	// and shut its node down.
	if _, err := hbnet.Rebalance(leaf0, leaf1, "app0", "prod0", "app", h.opts("leaf1")...); err != nil {
		t.Fatalf("rebalance app0: %v", err)
	}
	if apps := leaf0.Apps(); len(apps) != 0 {
		t.Fatalf("leaf0 still tracks %v after the handoff", apps)
	}
	head0 := leaf0.MergedHead()
	h.waitFor("root to drain leaf0", func() bool { return rootClients[0].Cursor() >= head0 })
	if _, err := root.RemoveUpstream("leaf0"); err != nil {
		t.Fatalf("remove leaf0 at root: %v", err)
	}
	if apps := root.Apps(); len(apps) != 1 || apps[0] != "leaf1" {
		t.Fatalf("root tracks %v after the removal, want [leaf1]", apps)
	}
	leaf0Srv.Close()
	leaf0.Close()

	// Both producers beat on; every new record now flows through leaf1.
	beat(p0, phase)
	beat(p1, phase)
	want := uint64(4 * phase)
	h.waitFor("phase 2 delivery", func() bool { return consumerTotal() == want })

	consumerMu.Lock()
	errNow := consumerErr
	consumerMu.Unlock()
	if errNow != nil {
		t.Fatal(errNow)
	}
	if got := leaf0.MergedHead() + leaf1.MergedHead(); got != want {
		t.Fatalf("leaf heads sum to %d, want %d", got, want)
	}
	if got := root.MergedHead(); got != want {
		t.Fatalf("root head %d, want %d", got, want)
	}
	tracker.with(func(tr *simcheck.Tracker) {
		if tr.Missed() != 0 {
			t.Fatalf("consumer missed %d records across the failover, want 0", tr.Missed())
		}
		if err := tr.CheckLives(1); err != nil {
			t.Fatal(err)
		}
		if err := tr.CheckConserved(root.MergedHead()); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBackpressureShedExactlyAccountsGap pins the shed ledger: a relay
// with a small bounded window (and a deliberate shed-lag policy) outruns a
// subscriber that starts from zero, so everything the window no longer
// holds is shed — explicitly. The subscriber's Missed and the relay's
// Shed() must agree exactly: the gap is fully attributed, nothing silent.
func TestBackpressureShedExactlyAccountsGap(t *testing.T) {
	h := newElasticHarness(t)
	p := h.producer("prod")
	relay, _ := h.relay("relay",
		hbnet.WithMergedRetain(64),
		hbnet.WithShedLag(16),
	)
	if _, err := relay.DialUpstream("app", "prod", "app", h.opts("relay")...); err != nil {
		t.Fatal(err)
	}

	const published = 2000
	beat(p, published)
	h.waitFor("relay absorption", func() bool { return relay.MergedHead() == published })

	// The lagging subscriber: by the time it asks for history from zero,
	// the bounded window has lapped far past it.
	c, err := hbnet.Dial("relay", "merged", h.opts("mon")...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tracker := simcheck.NewTracker("shed consumer", 0)
	var delivered, missed uint64
	for delivered+missed < published {
		b, err := c.Next(h.ctx)
		if err != nil {
			t.Fatalf("shed consumer: %v", err)
		}
		if err := tracker.Absorb(b); err != nil {
			t.Fatal(err)
		}
		delivered, missed = tracker.Delivered(), tracker.Missed()
	}

	shed := relay.Shed()
	if shed == 0 {
		t.Fatal("relay shed nothing while lapping a from-zero subscriber")
	}
	if missed == 0 {
		t.Fatal("subscriber missed nothing while reading a lapped window")
	}
	if err := simcheck.CheckShed("shed consumer", shed, missed); err != nil {
		t.Fatal(err)
	}
	if shed != missed {
		t.Fatalf("gap not exactly accounted: subscriber missed %d, relay shed %d — pure backpressure loss must match", missed, shed)
	}
	if err := tracker.CheckConserved(relay.MergedHead()); err != nil {
		t.Fatal(err)
	}
	if err := tracker.CheckLives(1); err != nil {
		t.Fatal(err)
	}
}
