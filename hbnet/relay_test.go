package hbnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/heartbeat"
	"repro/internal/simcheck"
	"repro/observer"
)

func TestRollupWireRoundTrip(t *testing.T) {
	// time.Unix, like the decoder's, so DeepEqual sees one Location.
	base := time.Unix(1234, 567)
	in := RollupBatch{
		Cursor: 42,
		Missed: 3,
		Rollups: []observer.Rollup{
			{
				App: "video", Start: base, End: base.Add(time.Second),
				Records: 100, Missed: 2, Count: 102,
				Rate: heartbeat.Rate{PerSec: 99.5, Beats: 100, Span: 995 * time.Millisecond,
					FirstSeq: 3, LastSeq: 102},
				RateOK:      true,
				MinInterval: 9 * time.Millisecond, MaxInterval: 11 * time.Millisecond,
				MeanInterval: 10 * time.Millisecond,
			},
			{App: "silent", Start: base, End: base.Add(time.Second)},
			{
				App: "one-beat", Start: base.Add(time.Second), End: base.Add(2 * time.Second),
				Records: 1, Count: 7,
				Rate:         heartbeat.Rate{FirstSeq: 7, LastSeq: 7},
				MeanInterval: 250 * time.Millisecond,
				MinInterval:  250 * time.Millisecond,
				MaxInterval:  250 * time.Millisecond,
			},
		},
	}
	body := appendRollups(nil, in)
	if body[0] != frameRollup {
		t.Fatalf("frame type %#x", body[0])
	}
	out, err := decodeRollups(body[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}

	// Truncations must error, never panic or fabricate.
	for cut := 1; cut < len(body)-1; cut += 7 {
		if _, err := decodeRollups(body[1 : len(body)-cut]); err == nil {
			t.Fatalf("truncation by %d decoded without error", cut)
		}
	}
}

// relayPair builds a relay over n in-process heartbeats, runs it, and
// publishes both feeds on a live server.
func relayPair(t *testing.T, n int, rollupEvery time.Duration) ([]*heartbeat.Heartbeat, *Relay, string) {
	t.Helper()
	r := NewRelay(WithRollupInterval(rollupEvery))
	hbs := make([]*heartbeat.Heartbeat, n)
	for i := range hbs {
		hb, err := heartbeat.New(20, heartbeat.WithCapacity(1<<14))
		if err != nil {
			t.Fatal(err)
		}
		hbs[i] = hb
		t.Cleanup(func() { hb.Close() })
		if err := r.AddUpstream(string(rune('a'+i)), observer.HeartbeatStream(hb)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done; r.Close() })

	srv := NewServer()
	if err := r.PublishOn(srv, "merged", "rollup"); err != nil {
		t.Fatal(err)
	}
	return hbs, r, startServer(t, srv)
}

// The merged feed: every upstream's records arrive exactly once through
// one connection, re-sequenced densely, attributed to hop-local producer
// ids.
func TestRelayMergedFanIn(t *testing.T) {
	const perApp = 200
	hbs, _, addr := relayPair(t, 3, 50*time.Millisecond)

	c, err := Dial(addr, "merged")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < perApp; i++ {
		for _, hb := range hbs {
			hb.Beat()
		}
	}
	for _, hb := range hbs {
		hb.Flush()
	}

	recs, missed := collect(t, c, func(recs []heartbeat.Record, missed uint64) bool {
		return len(recs)+int(missed) >= 3*perApp
	})
	if missed != 0 {
		t.Fatalf("missed %d records with ample retention", missed)
	}
	assertDense(t, recs, 0)
	perProducer := map[int32]int{}
	for _, r := range recs {
		perProducer[r.Producer]++
	}
	for id := int32(0); id < 3; id++ {
		if perProducer[id] != perApp {
			t.Fatalf("producer %d: %d records, want %d (by producer: %v)", id, perProducer[id], perApp, perProducer)
		}
	}
}

// The rollup feed: downsampled per-app windows conserve counts and carry
// usable rates.
func TestRelayRollups(t *testing.T) {
	const perApp = 150
	hbs, _, addr := relayPair(t, 2, 20*time.Millisecond)

	c, err := DialRollup(addr, "rollup")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stop := make(chan struct{})
	go func() {
		for i := 0; i < perApp; i++ {
			for _, hb := range hbs {
				hb.Beat()
			}
			time.Sleep(200 * time.Microsecond)
		}
		for _, hb := range hbs {
			hb.Flush()
		}
		close(stop)
	}()

	perAppRecs := map[string]uint64{}
	var sawRate bool
	deadline := time.Now().Add(10 * time.Second)
	for perAppRecs["a"] < perApp || perAppRecs["b"] < perApp {
		if time.Now().After(deadline) {
			t.Fatalf("rollups incomplete: %v", perAppRecs)
		}
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		rb, err := c.NextRollups(ctx)
		cancel()
		if err != nil {
			t.Fatalf("NextRollups: %v (got %v)", err, perAppRecs)
		}
		if rb.Missed != 0 {
			t.Fatalf("lapped %d emissions in a short run", rb.Missed)
		}
		for _, r := range rb.Rollups {
			perAppRecs[r.App] += r.Records
			if r.Missed != 0 {
				t.Fatalf("rollup reports %d missed with ample retention: %+v", r.Missed, r)
			}
			if r.RateOK {
				sawRate = true
				if r.Rate.PerSec <= 0 || math.IsNaN(r.Rate.PerSec) {
					t.Fatalf("bogus rollup rate: %+v", r.Rate)
				}
			}
		}
	}
	<-stop
	if perAppRecs["a"] != perApp || perAppRecs["b"] != perApp {
		t.Fatalf("rollup records %v, want %d each", perAppRecs, perApp)
	}
	if !sawRate {
		t.Fatal("no rollup ever carried a rate")
	}
}

// Relays compose: a root relay dials a leaf relay's merged feed, and the
// records survive both hops exactly once.
func TestRelayTree(t *testing.T) {
	const perApp = 100
	hbs, _, leafAddr := relayPair(t, 2, 25*time.Millisecond)

	root := NewRelay(WithRollupInterval(25 * time.Millisecond))
	if _, err := root.DialUpstream("leaf", leafAddr, "merged"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); root.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done; root.Close() })
	srv := NewServer()
	if err := root.PublishOn(srv, "merged", "rollup"); err != nil {
		t.Fatal(err)
	}
	rootAddr := startServer(t, srv)

	c, err := Dial(rootAddr, "merged")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < perApp; i++ {
		for _, hb := range hbs {
			hb.Beat()
		}
	}
	for _, hb := range hbs {
		hb.Flush()
	}

	recs, missed := collect(t, c, func(recs []heartbeat.Record, missed uint64) bool {
		return len(recs)+int(missed) >= 2*perApp
	})
	if missed != 0 {
		t.Fatalf("missed %d across the tree", missed)
	}
	assertDense(t, recs, 0)
}

// Satellite: downsampled windows account lapped records in Missed
// identically to raw subscriptions — delivered + missed equals the
// producer's published head on both paths — including when the records
// were lapped during a relay upstream reconnect.
func TestRollupMissedParityUnderLap(t *testing.T) {
	// A deliberately tiny ring so the producer laps it easily.
	hb, err := heartbeat.New(8, heartbeat.WithCapacity(64))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	srv := NewServer()
	srv.PublishHeartbeat("app", hb)
	p := newProxy(t, startServer(t, srv))

	relay := NewRelay(WithRollupInterval(20 * time.Millisecond))
	up, err := relay.DialUpstream("app", p.addr(), "app",
		WithReconnectBackoff(5*time.Millisecond, 20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	rctx, rcancel := context.WithCancel(context.Background())
	rdone := make(chan struct{})
	go func() { defer close(rdone); relay.Run(rctx) }()
	defer func() { rcancel(); <-rdone; relay.Close() }()
	rsrv := NewServer()
	if err := relay.PublishOn(rsrv, "merged", "rollup"); err != nil {
		t.Fatal(err)
	}
	relayAddr := startServer(t, rsrv)

	rollups, err := DialRollup(relayAddr, "rollup")
	if err != nil {
		t.Fatal(err)
	}
	defer rollups.Close()
	mergedC, err := Dial(relayAddr, "merged")
	if err != nil {
		t.Fatal(err)
	}
	defer mergedC.Close()

	beat := func(n int) {
		for i := 0; i < n; i++ {
			hb.Beat()
			if i%16 == 15 {
				hb.Flush()
				time.Sleep(time.Millisecond)
			}
		}
		hb.Flush()
	}

	beat(300)
	// A sustained outage: the relay's upstream connection is cut and new
	// dials are refused while the producer laps its 64-slot ring many
	// times over; the reconnect resumes from the cursor and the gap must
	// surface as Missed — in the rollups exactly as in a raw resume.
	p.setPaused(true)
	p.cut()
	for i := 0; i < 1000; i++ {
		hb.Beat()
	}
	hb.Flush()
	time.Sleep(50 * time.Millisecond)
	p.setPaused(false)
	beat(300)

	// Wait until the relay has caught up with the producer's full head.
	total := hb.Count()
	deadline := time.Now().Add(10 * time.Second)
	for up.Cursor() < total {
		if time.Now().After(deadline) {
			t.Fatalf("relay upstream stuck at cursor %d of %d", up.Cursor(), total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(60 * time.Millisecond) // at least one rollup flush past the tail

	// Raw parity reference: a fresh subscription from zero over the same
	// producer observes delivered + missed == head.
	sub := hb.SubscribeFrom(context.Background(), 0)
	defer sub.Close()
	var rawDelivered, rawMissed uint64
	for {
		recs, ok := sub.PollInto(nil)
		if !ok {
			break
		}
		rawDelivered += uint64(len(recs))
	}
	rawMissed = sub.Missed()
	simcheck.RequireConserved(t, "raw subscription", rawDelivered, rawMissed, total)
	if rawMissed == 0 {
		t.Fatal("test did not force a lap; tighten the ring")
	}

	// Rollup path: sum of Records and Missed across every emission. The
	// sums can never exceed the head if accounting is right, so collecting
	// until they reach it (or time runs out) asserts exact conservation —
	// via the same simcheck.RollupAccount the scenario matrix uses.
	var account simcheck.RollupAccount
	for account.Records+account.Missed < total {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		rb, err := rollups.NextRollups(ctx)
		cancel()
		if err != nil {
			t.Fatalf("NextRollups at %d + %d of %d: %v", account.Records, account.Missed, total, err)
		}
		if rb.Missed != 0 {
			// Lost emissions would make the sums below unreachable; fail
			// with the cause rather than spinning to the deadline.
			t.Fatalf("rollup emissions lapped in a short run: %d", rb.Missed)
		}
		account.AbsorbRollups(rb.Rollups, rb.Missed)
	}
	if err := account.CheckConserved("rollups", total); err != nil {
		t.Fatal(err)
	}
	if account.Missed == 0 {
		t.Fatal("rollups hid the lap entirely")
	}

	// Merged-feed subscriber: same conservation through the replay ring.
	mgRecs, mgMissed := collect(t, mergedC, func(recs []heartbeat.Record, missed uint64) bool {
		return uint64(len(recs))+missed >= total
	})
	simcheck.RequireConserved(t, "merged feed", uint64(len(mgRecs)), mgMissed, total)
	// And the relay delivered exactly what it saw: its merged head is the
	// producer's head (records it got plus losses it was told about).
	if relay.MergedHead() != total {
		t.Fatalf("relay merged head %d, want %d", relay.MergedHead(), total)
	}
}

// A relay that loses its server (listener and all connections) and
// re-publishes the same feeds on the same address resumes every
// subscriber from its cursor: the forced-outage path of examples/fleet,
// in-process.
func TestRelayServerOutageResume(t *testing.T) {
	const perApp = 120
	hb, err := heartbeat.New(20, heartbeat.WithCapacity(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()

	relay := NewRelay(WithRollupInterval(20 * time.Millisecond))
	if err := relay.AddUpstream("app", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); relay.Run(ctx) }()
	defer func() { cancel(); <-done; relay.Close() }()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv1 := NewServer()
	if err := relay.PublishOn(srv1, "merged", "rollup"); err != nil {
		t.Fatal(err)
	}
	go srv1.Serve(l)

	c, err := Dial(addr, "merged", WithReconnectBackoff(5*time.Millisecond, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	beat := func(n int) {
		for i := 0; i < n; i++ {
			hb.Beat()
		}
		hb.Flush()
	}
	beat(perApp)
	got, _ := collect(t, c, func(recs []heartbeat.Record, missed uint64) bool {
		return len(recs) >= perApp
	})

	// The outage: the server dies, the relay (and its histories) lives.
	srv1.Close()
	beat(perApp)

	// Service restored on the same address by a fresh Server over the SAME
	// relay.
	var l2 net.Listener
	for tries := 0; ; tries++ {
		l2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if tries > 100 {
			t.Fatalf("re-listen on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv2 := NewServer()
	if err := relay.PublishOn(srv2, "merged", "rollup"); err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(l2)
	t.Cleanup(func() { srv2.Close() })

	rest, missed := collect(t, c, func(recs []heartbeat.Record, missed uint64) bool {
		return len(recs) >= perApp
	})
	if missed != 0 {
		t.Fatalf("missed %d across the outage with ample retention", missed)
	}
	got = append(got, rest...)
	assertDense(t, got, 0)
	if len(got) != 2*perApp {
		t.Fatalf("got %d records, want %d", len(got), 2*perApp)
	}
	if c.Reconnects() == 0 {
		t.Fatal("the outage never forced a reconnect")
	}
}

// One live single-consumer stream fans out through a one-upstream relay to
// many subscribers, each with an independent cursor, and the feed ends
// cleanly once the relay closes behind the ended stream.
func TestStreamFeed(t *testing.T) {
	hb, err := heartbeat.New(20, heartbeat.WithCapacity(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	relay := NewRelay()
	if err := relay.AddUpstream("app", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() { defer close(runDone); relay.Run(ctx) }()

	srv := NewServer()
	if err := srv.Publish("app", relay.MergedFeed()); err != nil {
		t.Fatal(err)
	}
	addr := startServer(t, srv)

	c1, err := Dial(addr, "app")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := Dial(addr, "app")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	const n = 250
	for i := 0; i < n; i++ {
		hb.Beat()
	}
	hb.Close() // flushes, then ends the source stream: the relay retires it

	for _, c := range []*Client{c1, c2} {
		recs, missed := collect(t, c, func(recs []heartbeat.Record, missed uint64) bool {
			return len(recs)+int(missed) >= n
		})
		if missed != 0 {
			t.Fatalf("missed %d", missed)
		}
		assertDense(t, recs, 0)
	}
	cancel()
	<-runDone
	relay.Close()
	// After the tail, the feed must end.
	for _, c := range []*Client{c1, c2} {
		dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := c.Next(dctx)
		dcancel()
		if !errors.Is(err, io.EOF) {
			t.Fatalf("after close: %v, want EOF", err)
		}
	}
}

// rejectedStream always fails terminally, like a Client whose
// subscription the server refused.
type rejectedStream struct{}

func (rejectedStream) Next(context.Context) (observer.Batch, error) {
	return observer.Batch{}, fmt.Errorf("%w by server: feed gone", ErrRejected)
}

// A terminally rejected upstream is reported once and retired — not
// re-reported every interval forever.
func TestRelayRetiresRejectedUpstream(t *testing.T) {
	errs := make(chan error, 16)
	relay := NewRelay(
		WithRollupInterval(10*time.Millisecond),
		WithRelayOnError(func(app string, err error) { errs <- err }),
	)
	defer relay.Close()
	if err := relay.AddUpstream("gone", rejectedStream{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); relay.Run(ctx) }()
	defer func() { cancel(); <-done }()

	select {
	case err := <-errs:
		if !errors.Is(err, ErrRejected) {
			t.Fatalf("reported %v, want ErrRejected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rejection never reported")
	}
	// Many intervals later: no re-reports.
	time.Sleep(100 * time.Millisecond)
	if n := len(errs); n != 0 {
		t.Fatalf("rejected upstream re-reported %d times", n)
	}
}

// Kind mismatches are refused permanently, not retried forever.
func TestRollupKindMismatch(t *testing.T) {
	hbs, _, addr := relayPair(t, 1, 50*time.Millisecond)
	hbs[0].Beat()
	hbs[0].Flush()

	// DialRollup against the raw merged feed: terminal ErrRejected.
	c, err := DialRollup(addr, "merged")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.NextRollups(ctx); !errors.Is(err, ErrRejected) {
		t.Fatalf("rollup dial of raw feed: %v, want ErrRejected", err)
	}

	// Dial against the rollup feed: also terminal.
	c2, err := Dial(addr, "rollup")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if _, err := c2.Next(ctx2); !errors.Is(err, ErrRejected) {
		t.Fatalf("raw dial of rollup feed: %v, want ErrRejected", err)
	}
}

// Tentpole: hierarchical rollup compaction. A root relay subscribes to a
// leaf relay's ROLLUP feed instead of its raw merged feed, folds the
// child's per-app windows through a RollupCompactor, and re-exports them
// as its own compacted feed — so an interior node's rollup state is
// O(apps), independent of the producer count below, while Records+Missed
// still conserve end to end.
func TestRelayRollupCompaction(t *testing.T) {
	const perApp = 120
	hbs, _, leafAddr := relayPair(t, 2, 20*time.Millisecond)

	root := NewRelay(WithRollupInterval(20 * time.Millisecond))
	if _, err := root.DialRollupUpstream("leaf", leafAddr, "rollup"); err != nil {
		t.Fatal(err)
	}
	if err := root.AddRollupUpstream("leaf", nil); err == nil {
		t.Fatal("duplicate rollup upstream accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); root.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done; root.Close() })
	srv := NewServer()
	if err := srv.PublishRollup("apps", root.CompactedFeed()); err != nil {
		t.Fatal(err)
	}
	rootAddr := startServer(t, srv)

	c, err := DialRollup(rootAddr, "apps")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < perApp; i++ {
		for _, hb := range hbs {
			hb.Beat()
		}
	}
	for _, hb := range hbs {
		hb.Flush()
	}

	var account simcheck.RollupAccount
	sums := map[string]uint64{}
	deadline := time.Now().Add(10 * time.Second)
	for sums["a"]+sums["b"] < 2*perApp {
		if time.Now().After(deadline) {
			t.Fatalf("compacted rollups incomplete: %v", sums)
		}
		dctx, dcancel := context.WithDeadline(context.Background(), deadline)
		rb, err := c.NextRollups(dctx)
		dcancel()
		if err != nil {
			t.Fatalf("NextRollups: %v (got %v)", err, sums)
		}
		account.AbsorbRollups(rb.Rollups, rb.Missed)
		for _, r := range rb.Rollups {
			sums[r.App] += r.Records + r.Missed
		}
	}
	if sums["a"] != perApp || sums["b"] != perApp {
		t.Fatalf("per-app compacted counts %v, want %d each", sums, perApp)
	}
	if err := account.CheckConserved("compacted feed", 2*perApp); err != nil {
		t.Fatal(err)
	}
	if missed := root.RollupUpstreamMissed(); missed != 0 {
		t.Fatalf("root lapped %d child emissions in a short run", missed)
	}
	// The O(apps) claim, directly: the root tracks the fleet's two
	// applications, yet has zero raw upstreams of its own.
	if apps := root.RollupApps(); !reflect.DeepEqual(apps, []string{"a", "b"}) {
		t.Fatalf("RollupApps() = %v, want [a b]", apps)
	}
	if raw := root.Apps(); len(raw) != 0 {
		t.Fatalf("root re-tracks raw upstreams %v through a rollup subscription", raw)
	}
}
