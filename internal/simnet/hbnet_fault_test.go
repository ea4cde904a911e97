package simnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/clock"
	"repro/hbnet"
	"repro/heartbeat"
	"repro/internal/simcheck"
	"repro/observer"
)

// These tests drive the hbnet failure seams the scenario matrix can only
// hit probabilistically, each pinned deterministically under virtual time:
// the reconnect stampede (backoff jitter must desynchronize a fleet), the
// server write timeout (a stalled subscriber must be disconnected at the
// simulated instant, not a wall-clock one), and the ref-counted fan-out
// frame lifecycle (a subscriber disconnecting mid-write must not free a
// frame other subscribers are still writing).

// recordingDialer wraps a Host and stamps the virtual time of every dial
// attempt — the observable trace of the client's backoff schedule.
type recordingDialer struct {
	d     hbnet.Dialer
	clk   clock.Clock
	mu    *sync.Mutex
	times *[]time.Time
}

func (r recordingDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	r.mu.Lock()
	*r.times = append(*r.times, clock.Now(r.clk))
	r.mu.Unlock()
	return r.d.DialContext(ctx, network, addr)
}

// TestReconnectJitterDesynchronizesRedials is the stampede regression: a
// fleet of clients that all lose the same server at the same virtual
// instant must NOT redial in lockstep. Each client draws full jitter from
// its own seed, so the recorded redial schedules have to spread across the
// backoff window; before jitter existed every client's first retry landed
// at exactly cut+backoffMin — one distinct instant for the whole fleet.
func TestReconnectJitterDesynchronizesRedials(t *testing.T) {
	clk := clock.NewVirtual()
	nw := New(clk)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go clk.AutoAdvance(ctx, 0)

	hb, err := heartbeat.New(20, heartbeat.WithClock(clk), heartbeat.WithCapacity(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	srv := hbnet.NewServer(hbnet.WithServerClock(clk))
	if err := srv.PublishHeartbeat("app", hb); err != nil {
		t.Fatal(err)
	}
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	const fleet = 8
	var mu sync.Mutex
	attempts := make([][]time.Time, fleet)
	clients := make([]*hbnet.Client, fleet)
	hosts := make([]string, fleet)
	for i := 0; i < fleet; i++ {
		hosts[i] = fmt.Sprintf("mon%d", i)
		c, err := hbnet.Dial("srv", "app",
			hbnet.WithDialer(recordingDialer{d: nw.Host(hosts[i]), clk: clk, mu: &mu, times: &attempts[i]}),
			hbnet.WithClientClock(clk),
			hbnet.WithReconnectJitterSeed(int64(1000+i)),
			hbnet.WithReconnectBackoff(20*time.Millisecond, 500*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		defer c.Close()
	}

	// The outage: every connection dies at the same virtual instant, and
	// the listener refuses redials for a few backoff cycles.
	nw.SetListenerDown("srv", true)
	for _, h := range hosts {
		nw.CutLink(h, "srv")
	}
	if !sleepUntilVirtual(ctx, clk, clk.Now().Add(3*time.Second)) {
		t.Fatal("virtual outage window interrupted")
	}
	nw.SetListenerDown("srv", false)

	deadline := time.Now().Add(30 * time.Second)
	for {
		reconnected := 0
		for _, c := range clients {
			if c.Reconnects() >= 1 {
				reconnected++
			}
		}
		if reconnected == fleet {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d clients reconnected after the outage lifted", reconnected, fleet)
		}
		time.Sleep(time.Millisecond)
	}

	// attempts[i][0] is the successful initial dial; [1] is the first
	// post-cut retry. Jitter-free backoff puts every first retry at exactly
	// the same virtual instant; full jitter must spread them.
	mu.Lock()
	defer mu.Unlock()
	firstRetry := make(map[time.Time]int)
	for i, ts := range attempts {
		if len(ts) < 2 {
			t.Fatalf("client %d recorded %d dial attempts, want the initial dial plus retries", i, len(ts))
		}
		firstRetry[ts[1]]++
	}
	if distinct := len(firstRetry); distinct < fleet/2 {
		t.Fatalf("first post-outage retries landed on only %d distinct instants across %d clients — redials are synchronized: %v",
			distinct, fleet, firstRetry)
	}
}

// TestServerWriteTimeoutDropsStalledSubscriber pins the write-timeout seam
// under virtual time: a subscriber that stops draining its socket blocks
// the server's write (kernel-style backpressure via SetWriteLimit), the
// deadline — computed on the server's configured clock — fires at the
// simulated instant, the server disconnects the stall, and the subscriber
// later reconnects from its cursor with nothing lost unaccounted.
func TestServerWriteTimeoutDropsStalledSubscriber(t *testing.T) {
	clk := clock.NewVirtual()
	nw := New(clk)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go clk.AutoAdvance(ctx, 0)

	hb, err := heartbeat.New(20, heartbeat.WithClock(clk), heartbeat.WithCapacity(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	timeouts := make(chan error, 1)
	srv := hbnet.NewServer(
		hbnet.WithServerClock(clk),
		hbnet.WithWriteTimeout(time.Second),
		hbnet.WithServerOnError(func(err error) {
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				select {
				case timeouts <- err:
				default:
				}
			}
		}))
	if err := srv.PublishHeartbeat("app", hb); err != nil {
		t.Fatal(err)
	}
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	// A small socket buffer, so a stalled subscriber backpressures the
	// server after a handful of batches instead of megabytes.
	nw.SetWriteLimit("mon", "srv", 1024)
	c, err := hbnet.Dial("srv", "app",
		hbnet.WithDialer(nw.Host("mon")),
		hbnet.WithClientClock(clk),
		hbnet.WithReconnectBackoff(10*time.Millisecond, 100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	beatCtx, stopBeats := context.WithCancel(ctx)
	var beats sync.WaitGroup
	beats.Add(1)
	go func() {
		defer beats.Done()
		for clock.SleepCtx(beatCtx, clk, time.Millisecond) {
			hb.Beat()
		}
	}()

	// The stall: the consumer never calls Next, so the client's buffer
	// fills, the socket fills, the server's write blocks, and the virtual
	// deadline disconnects it. No wall-clock sleep is involved: the timeout
	// is a simulation event.
	select {
	case <-timeouts:
	case <-time.After(30 * time.Second):
		t.Fatal("server write timeout never fired under the virtual clock")
	}
	stopBeats()
	beats.Wait()
	hb.Flush()
	head := hb.Count()

	// The stalled subscriber wakes up: it drains its buffer, notices the
	// disconnect, reconnects from its cursor, and the delivery contract
	// holds — everything published is delivered or counted missed.
	tr := simcheck.NewTracker("stalled subscriber", 0)
	deadline := time.Now().Add(30 * time.Second)
	for tr.Delivered()+tr.Missed() < head {
		if time.Now().After(deadline) {
			t.Fatalf("drain stalled at delivered=%d missed=%d of head=%d (reconnects=%d)",
				tr.Delivered(), tr.Missed(), head, c.Reconnects())
		}
		nctx, ncancel := context.WithTimeout(ctx, time.Second)
		b, err := c.Next(nctx)
		ncancel()
		if err != nil {
			continue // idle tick while the client redials
		}
		if aerr := tr.Absorb(b); aerr != nil {
			t.Fatal(aerr)
		}
	}
	if c.Reconnects() < 1 {
		t.Fatal("client never reconnected after the write-timeout disconnect")
	}
	simcheck.RequireConserved(t, "stalled subscriber", tr.Delivered(), tr.Missed(), head)
}

// TestFrameFanoutSurvivesMidWriteDisconnect exercises the ref-counted
// frame lifecycle under -race: four subscribers at the same cursor share
// each encoded catch-up frame, their writes staggered by latency and a
// tiny socket buffer, and one of them is severed mid-frame by a byte
// trigger. The failed write releases that subscriber's reference while
// another subscriber's write of the SAME frame is still in flight — if
// release returned the buffer to the pool early, the race detector (or a
// corrupt delivery) would catch the reuse. Every subscriber, the severed
// one included (it reconnects), must conserve against the relay's merged
// head.
func TestFrameFanoutSurvivesMidWriteDisconnect(t *testing.T) {
	clk := clock.NewVirtual()
	nw := New(clk)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go clk.AutoAdvance(ctx, 0)

	hb, err := heartbeat.New(20, heartbeat.WithClock(clk), heartbeat.WithCapacity(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	relay := hbnet.NewRelay(hbnet.WithRelayClock(clk), hbnet.WithMergedRetain(1<<17))
	if err := relay.AddUpstream("app", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	go relay.Run(ctx)
	defer relay.Close()

	srv := hbnet.NewServer(hbnet.WithServerClock(clk), hbnet.WithWriteTimeout(0))
	if err := relay.PublishOn(srv, "merged", "rollup"); err != nil {
		t.Fatal(err)
	}
	ln, err := nw.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	// Phase 1: everyone connects and drains a small lead-in, so all four
	// subscribers sit at the same cursor before any fault is armed (arming
	// the byte trigger before the handshake would sever the dial itself —
	// the trigger counts the whole link's traffic).
	for i := 0; i < 2_000; i++ {
		hb.Beat()
	}
	hb.Flush()
	leadIn := waitMergedStable(t, relay)

	subscribers := []string{"fast", "lagged", "slow", "victim"}
	clients := make([]*hbnet.Client, len(subscribers))
	trackers := make([]*simcheck.Tracker, len(subscribers))
	for i, host := range subscribers {
		c, err := hbnet.Dial("srv", "merged",
			hbnet.WithDialer(nw.Host(host)),
			hbnet.WithClientClock(clk),
			hbnet.WithReconnectBackoff(5*time.Millisecond, 50*time.Millisecond))
		if err != nil {
			t.Fatalf("%s: dial: %v", host, err)
		}
		clients[i] = c
		defer c.Close()
		trackers[i] = simcheck.NewTracker(host, 0)
		if err := drainTo(ctx, c, trackers[i], leadIn); err != nil {
			t.Fatalf("%s: lead-in: %v", host, err)
		}
	}

	// Phase 2, staggered speeds: an unconstrained subscriber, a
	// high-latency one, a backpressured one (4 KiB socket buffer against
	// ~1 MB of catch-up frames, so its writes stay in flight long after the
	// others), and a victim whose connection the byte trigger severs in the
	// middle of a shared frame.
	nw.SetLatency("lagged", "srv", 2*time.Millisecond)
	nw.SetWriteLimit("slow", "srv", 4096)
	nw.DropAfterBytes("victim", "srv", 32*1024)

	const burst = 40_000
	for i := 0; i < burst; i++ {
		hb.Beat()
	}
	hb.Flush()
	head := waitMergedStable(t, relay)

	errs := make(chan error, len(subscribers))
	var wg sync.WaitGroup
	for i, host := range subscribers {
		wg.Add(1)
		go func(host string, c *hbnet.Client, tr *simcheck.Tracker) {
			defer wg.Done()
			if err := drainTo(ctx, c, tr, head); err != nil {
				errs <- fmt.Errorf("%s: %w", host, err)
				return
			}
			if err := simcheck.Conserved(host, tr.Delivered(), tr.Missed(), head); err != nil {
				errs <- err
			}
		}(host, clients[i], trackers[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// drainTo absorbs batches from c into tr until the tracker accounts for
// every record up to head (delivered or missed), bounded in real time.
func drainTo(ctx context.Context, c *hbnet.Client, tr *simcheck.Tracker, head uint64) error {
	deadline := time.Now().Add(60 * time.Second)
	for tr.Delivered()+tr.Missed() < head {
		if time.Now().After(deadline) {
			return fmt.Errorf("stalled at delivered=%d missed=%d of head=%d (reconnects=%d)",
				tr.Delivered(), tr.Missed(), head, c.Reconnects())
		}
		nctx, ncancel := context.WithTimeout(ctx, time.Second)
		b, err := c.Next(nctx)
		ncancel()
		if err != nil {
			continue // idle tick while the client redials
		}
		if aerr := tr.Absorb(b); aerr != nil {
			return aerr
		}
		c.Recycle(b)
	}
	return nil
}

// waitMergedStable waits until the relay's merged head has absorbed the
// backlog and stopped moving, and returns it.
func waitMergedStable(t *testing.T, relay *hbnet.Relay) uint64 {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var last uint64
	stable := 0
	for {
		h := relay.MergedHead()
		if h > 0 && h == last {
			stable++
			if stable >= 5 {
				return h
			}
		} else {
			stable = 0
		}
		last = h
		if time.Now().After(deadline) {
			t.Fatalf("relay merged head never settled (at %d)", h)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
