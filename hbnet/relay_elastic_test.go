package hbnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/heartbeat"
	"repro/observer"
)

// drainMergedFeed reads the relay's merged feed from zero until want seqs
// (records + missed) are accounted for.
func drainMergedFeed(t *testing.T, r *Relay, want uint64) ([]heartbeat.Record, uint64) {
	t.Helper()
	s, err := r.MergedFeed()(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var recs []heartbeat.Record
	var missed uint64
	deadline := time.Now().Add(10 * time.Second)
	for uint64(len(recs))+missed < want {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		b, err := s.Next(ctx)
		cancel()
		if err != nil {
			t.Fatalf("merged feed at %d+%d of %d: %v", len(recs), missed, want, err)
		}
		recs = append(recs, b.Records...)
		missed += b.Missed
	}
	return recs, missed
}

// waitMergedHead polls until the relay's merged head reaches want.
func waitMergedHead(t *testing.T, r *Relay, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.MergedHead() < want {
		if time.Now().After(deadline) {
			t.Fatalf("merged head stuck at %d, want %d", r.MergedHead(), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// closeTrackStream wraps a stream and records whether the owner released it.
type closeTrackStream struct {
	observer.Stream
	once   sync.Once
	closed chan struct{}
}

func newCloseTrackStream(s observer.Stream) *closeTrackStream {
	return &closeTrackStream{Stream: s, closed: make(chan struct{})}
}

func (c *closeTrackStream) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func newTestHB(t *testing.T) *heartbeat.Heartbeat {
	t.Helper()
	hb, err := heartbeat.New(20, heartbeat.WithCapacity(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hb.Close() })
	return hb
}

func beatN(hb *heartbeat.Heartbeat, n int) {
	for i := 0; i < n; i++ {
		hb.Beat()
	}
	hb.Flush()
}

// Tentpole: RemoveUpstream while Run is live retires the registration
// completely — pump stopped, already-delivered records kept, stream closed,
// name immediately reusable — and the merged history stays conserved and
// dense across the removal and the re-add.
func TestRelayRemoveUpstream(t *testing.T) {
	relay := NewRelay(WithRollupInterval(10 * time.Millisecond))
	hbA, hbB := newTestHB(t), newTestHB(t)
	streamA := newCloseTrackStream(observer.HeartbeatStream(hbA))
	if err := relay.AddUpstream("a", streamA); err != nil {
		t.Fatal(err)
	}
	if err := relay.AddUpstream("b", observer.HeartbeatStream(hbB)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); relay.Run(ctx) }()
	defer func() { cancel(); <-done; relay.Close() }()

	beatN(hbA, 100)
	beatN(hbB, 100)
	waitMergedHead(t, relay, 200)

	h, err := relay.RemoveUpstream("a")
	if err != nil {
		t.Fatal(err)
	}
	if h.App != "a" || h.Stream != nil {
		t.Fatalf("handoff %+v: want App a and a closed (nil) stream", h)
	}
	select {
	case <-streamA.closed:
	default:
		t.Fatal("removed upstream's stream was not closed")
	}
	if apps := relay.Apps(); !reflect.DeepEqual(apps, []string{"b"}) {
		t.Fatalf("Apps() = %v after removal, want [b]", apps)
	}

	// The name is free again, immediately.
	hbA2 := newTestHB(t)
	if err := relay.AddUpstream("a", observer.HeartbeatStream(hbA2)); err != nil {
		t.Fatalf("re-adding removed name: %v", err)
	}
	beatN(hbA2, 50)
	beatN(hbB, 50)
	waitMergedHead(t, relay, 300)

	recs, missed := drainMergedFeed(t, relay, 300)
	if missed != 0 {
		t.Fatalf("missed %d with ample retention across a removal", missed)
	}
	assertDense(t, recs, 0)
	if len(recs) != 300 {
		t.Fatalf("got %d records, want 300", len(recs))
	}
}

// Satellite: upstream ids are unique per registration life. Before the fix,
// AddUpstream assigned int32(len(r.order)), so removing "a" and re-adding
// it aliased the new registration with "b"'s id in the merged seq space.
func TestRelayRemoveReaddNoIDAlias(t *testing.T) {
	relay := NewRelay(WithRollupInterval(10 * time.Millisecond))
	hb1, hb2, hb3 := newTestHB(t), newTestHB(t), newTestHB(t)
	if err := relay.AddUpstream("a", observer.HeartbeatStream(hb1)); err != nil {
		t.Fatal(err)
	}
	if err := relay.AddUpstream("b", observer.HeartbeatStream(hb2)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); relay.Run(ctx) }()
	defer func() { cancel(); <-done; relay.Close() }()

	beatN(hb1, 10)
	beatN(hb2, 10)
	waitMergedHead(t, relay, 20)
	if _, err := relay.RemoveUpstream("a"); err != nil {
		t.Fatal(err)
	}
	if err := relay.AddUpstream("a", observer.HeartbeatStream(hb3)); err != nil {
		t.Fatal(err)
	}
	beatN(hb3, 10)
	waitMergedHead(t, relay, 30)

	recs, missed := drainMergedFeed(t, relay, 30)
	if missed != 0 {
		t.Fatalf("missed %d", missed)
	}
	perID := map[int32]int{}
	for _, r := range recs {
		perID[r.Producer]++
	}
	// Three registration lives, three distinct ids: 10 records each. The
	// aliasing bug would fold re-added "a" onto id 1 (perID[1] == 20).
	want := map[int32]int{0: 10, 1: 10, 2: 10}
	if !reflect.DeepEqual(perID, want) {
		t.Fatalf("records per producer id = %v, want %v", perID, want)
	}
}

// markerSource is an upstream the lifecycle tests drive: one marker per
// delivery, and a Close its owner calls. rawScript and rollupScript present
// it as the two upstream kinds.
type markerSource interface {
	wait(ctx context.Context) (int, error)
	Close() error
}

// script is a hand-driven markerSource: the test decides when it delivers,
// when and how it ends, and sees whether its owner closed it.
type script struct {
	deliveries chan int
	ended      chan struct{}
	final      error
	closed     chan struct{}
	closeOnce  sync.Once
}

func newScript() *script {
	return &script{deliveries: make(chan int), ended: make(chan struct{}), closed: make(chan struct{})}
}

// end makes every further Next return err (io.EOF, a wrapped ErrRejected).
func (s *script) end(err error) { s.final = err; close(s.ended) }

func (s *script) wait(ctx context.Context) (int, error) {
	select {
	case m := <-s.deliveries:
		return m, nil
	case <-s.ended:
		return 0, s.final
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

func (s *script) Close() error {
	s.closeOnce.Do(func() { close(s.closed) })
	return nil
}

func (s *script) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

func markerBatch(m int) observer.Batch {
	return observer.Batch{Records: []heartbeat.Record{{Time: time.Unix(0, int64(m))}}, Count: uint64(m)}
}

func markerRollups(m int) RollupBatch {
	return RollupBatch{Rollups: []observer.Rollup{{App: fmt.Sprint("m", m), Records: 1}}, Cursor: uint64(m)}
}

type rawScript struct{ markerSource }

func (s rawScript) Next(ctx context.Context) (observer.Batch, error) {
	m, err := s.wait(ctx)
	if err != nil {
		return observer.Batch{}, err
	}
	return markerBatch(m), nil
}

type rollupScript struct{ markerSource }

func (s rollupScript) Next(ctx context.Context) (RollupBatch, error) {
	m, err := s.wait(ctx)
	if err != nil {
		return RollupBatch{}, err
	}
	return markerRollups(m), nil
}

// lifecycleKind is one row of the {raw, rollup} table: how to register and
// remove an upstream of that kind, and how to read back the markers the
// relay absorbed from it, in absorption order.
type lifecycleKind struct {
	name     string
	set      func(r *Relay) *upstreamSet
	add      func(r *Relay, name string, s markerSource) error
	remove   func(r *Relay, name string) error
	absorbed func(r *Relay) []int
	// readded checks what a removed-then-re-added name means for the kind,
	// after markers 1 and 2 arrived in the first life and 3 in the second.
	readded func(t *testing.T, r *Relay)
}

var lifecycleKinds = []lifecycleKind{
	{
		name:   "raw",
		set:    func(r *Relay) *upstreamSet { return &r.core.raw },
		add:    func(r *Relay, name string, s markerSource) error { return r.AddUpstream(name, rawScript{s}) },
		remove: func(r *Relay, name string) error { _, err := r.RemoveUpstream(name); return err },
		absorbed: func(r *Relay) []int {
			r.mu.Lock()
			recs, _, _ := r.core.merged.readSince(0, maxRelayBatch)
			r.mu.Unlock()
			var ms []int
			for _, rec := range recs {
				ms = append(ms, int(rec.Time.UnixNano()))
			}
			return ms
		},
		readded: func(t *testing.T, r *Relay) {
			// A fresh id per registration life: the second life's records
			// are distinguishable in the merged history.
			r.mu.Lock()
			recs, _, _ := r.core.merged.readSince(0, maxRelayBatch)
			r.mu.Unlock()
			var ids []int32
			for _, rec := range recs {
				ids = append(ids, rec.Producer)
			}
			if !reflect.DeepEqual(ids, []int32{0, 0, 1}) {
				t.Fatalf("producer ids %v across a re-add, want [0 0 1]", ids)
			}
		},
	},
	{
		name:   "rollup",
		set:    func(r *Relay) *upstreamSet { return &r.core.rollup },
		add:    func(r *Relay, name string, s markerSource) error { return r.AddRollupUpstream(name, rollupScript{s}) },
		remove: func(r *Relay, name string) error { return r.RemoveRollupUpstream(name) },
		// Compaction is commutative, but the compactor lists applications in
		// first-absorbed order — and every marker is its own application.
		absorbed: func(r *Relay) []int {
			var ms []int
			for _, app := range r.RollupApps() {
				m, _ := strconv.Atoi(strings.TrimPrefix(app, "m"))
				ms = append(ms, m)
			}
			return ms
		},
		readded: func(t *testing.T, r *Relay) {
			// Compactor state is keyed by application, not by child: the
			// first life's applications are still tracked (absorbed checks
			// exactly that), and no raw-side state was created for the child.
			if apps := r.Apps(); len(apps) != 0 {
				t.Fatalf("rollup upstream leaked into the raw namespace: %v", apps)
			}
		},
	},
}

func forEachKind(t *testing.T, f func(t *testing.T, k lifecycleKind)) {
	for _, k := range lifecycleKinds {
		k := k
		t.Run(k.name, func(t *testing.T) { f(t, k) })
	}
}

// runRelay drives r.Run until the test ends.
func runRelay(t *testing.T, r *Relay) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); r.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done; r.Close() })
}

func waitAbsorbed(t *testing.T, k lifecycleKind, r *Relay, want []int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !reflect.DeepEqual(k.absorbed(r), want) {
		if time.Now().After(deadline) {
			t.Fatalf("absorbed %v, want %v", k.absorbed(r), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitRetired polls until name is no longer registered in the kind's set.
func waitRetired(t *testing.T, k lifecycleKind, r *Relay, name string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		r.mu.Lock()
		_, registered := k.set(r).byName[name]
		r.mu.Unlock()
		if !registered {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s %q still registered", k.set(r).kind, name)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cancelScript is a markerSource whose deliveries race a Run shutdown: a
// Next that has to wait hands over the next marker only once its context is
// cancelled — consumed from the upstream's cursor just as the relay stops.
// A busy one also has a marker ready for every Next under an already
// cancelled context, like a producer beating faster than the relay absorbs;
// a quiet one has nothing more to give there.
type cancelScript struct {
	busy    bool
	last    int
	waiting chan struct{} // signalled each time a Next starts to wait
}

func (s *cancelScript) wait(ctx context.Context) (int, error) {
	if ctx.Err() == nil {
		select {
		case s.waiting <- struct{}{}:
		default:
		}
		<-ctx.Done()
	} else if !s.busy {
		return 0, ctx.Err()
	}
	if !errors.Is(ctx.Err(), context.Canceled) {
		return 0, ctx.Err() // an idle poll deadline, not a shutdown
	}
	s.last++
	return s.last, nil
}

func (s *cancelScript) Close() error { return nil }

// The pump absorbs a delivery it has in hand when Run stops: the marker the
// cancellation released is in the relay's state by the time Run returns,
// and a re-Run continues with the next marker — nothing lost, nothing
// twice. The busy variant pins the shutdown rule: a stream that always has
// data under a cancelled context still lets Run return, after exactly the
// one delivery in hand.
func TestRelayRunStopAbsorbsInHandDelivery(t *testing.T) {
	forEachKind(t, func(t *testing.T, k lifecycleKind) {
		for _, busy := range []bool{false, true} {
			relay := NewRelay(WithRollupInterval(time.Hour))
			s := &cancelScript{busy: busy, waiting: make(chan struct{}, 1)}
			if err := k.add(relay, "a", s); err != nil {
				t.Fatal(err)
			}
			for run, want := range [][]int{{1}, {1, 2}} {
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan struct{})
				go func() { defer close(done); relay.Run(ctx) }()
				select {
				case <-s.waiting:
				case <-time.After(10 * time.Second):
					t.Fatalf("busy=%v run %d: the pump never waited in Next", busy, run+1)
				}
				cancel()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatalf("busy=%v run %d: Run did not return with the stream still delivering", busy, run+1)
				}
				if got := k.absorbed(relay); !reflect.DeepEqual(got, want) {
					t.Fatalf("busy=%v run %d: absorbed %v when Run returned, want %v", busy, run+1, got, want)
				}
			}
			relay.Close()
		}
	})
}

// Removal while Run is live: everything the pump consumed before the
// removal is absorbed by the time the removal returns, and the freed name
// then starts a new registration life.
func TestRelayRemoveWhileRunning(t *testing.T) {
	forEachKind(t, func(t *testing.T, k lifecycleKind) {
		relay := NewRelay(WithRollupInterval(10 * time.Millisecond))
		first := newScript()
		if err := k.add(relay, "a", first); err != nil {
			t.Fatal(err)
		}
		runRelay(t, relay)
		first.deliveries <- 1
		waitAbsorbed(t, k, relay, []int{1})
		// The pump holds delivery 2 the moment this send returns; the removal
		// must wait for it to be absorbed.
		first.deliveries <- 2
		if err := k.remove(relay, "a"); err != nil {
			t.Fatal(err)
		}
		if got := k.absorbed(relay); !reflect.DeepEqual(got, []int{1, 2}) {
			t.Fatalf("absorbed %v when the removal returned, want [1 2]", got)
		}
		if !first.isClosed() {
			t.Fatal("removed upstream's stream was not closed")
		}
		if err := k.remove(relay, "a"); err == nil || !strings.Contains(err.Error(), "unknown "+k.set(relay).kind+` "a"`) {
			t.Fatalf("second removal: %v, want unknown %s", err, k.set(relay).kind)
		}

		second := newScript()
		if err := k.add(relay, "a", second); err != nil {
			t.Fatalf("re-adding removed name: %v", err)
		}
		second.deliveries <- 3
		waitAbsorbed(t, k, relay, []int{1, 2, 3})
		k.readded(t, relay)
	})
}

// A stream that ends retires its registration: everything it delivered is
// kept, the stream is closed, and the name is free.
func TestRelayEOFRetires(t *testing.T) {
	forEachKind(t, func(t *testing.T, k lifecycleKind) {
		relay := NewRelay(WithRollupInterval(10 * time.Millisecond))
		s := newScript()
		if err := k.add(relay, "a", s); err != nil {
			t.Fatal(err)
		}
		runRelay(t, relay)
		s.deliveries <- 1
		s.end(io.EOF)
		waitRetired(t, k, relay, "a")
		if got := k.absorbed(relay); !reflect.DeepEqual(got, []int{1}) {
			t.Fatalf("absorbed %v, want [1]", got)
		}
		deadline := time.Now().Add(10 * time.Second)
		for !s.isClosed() { // closed right after the name is freed
			if time.Now().After(deadline) {
				t.Fatal("ended upstream's stream was not closed")
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := k.add(relay, "a", newScript()); err != nil {
			t.Fatalf("re-adding retired name: %v", err)
		}
	})
}

// A pump that ends on its own releases what it held: its context and its
// poll-deadline watch. Its registration has left the relay, so nothing else
// would — before the fix each retired pump left a goroutine parked until
// Run returned.
func TestRelayRetiredPumpsReleaseGoroutines(t *testing.T) {
	forEachKind(t, func(t *testing.T, k lifecycleKind) {
		relay := NewRelay(WithRollupInterval(10 * time.Millisecond))
		runRelay(t, relay)
		base := runtime.NumGoroutine()
		const n = 200
		for i := 0; i < n; i++ {
			s := newScript()
			s.end(io.EOF)
			if err := k.add(relay, fmt.Sprint("u", i), s); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			waitRetired(t, k, relay, fmt.Sprint("u", i))
		}
		// Pumps finish exiting just after they retire; a leak per pump
		// would leave n extra goroutines, not a handful.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base+n/20 {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines with all %d pumps retired, %d before they started", runtime.NumGoroutine(), n, base)
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
}

// Satellite regression: a terminally rejected upstream is reported once and
// retired through the removal path — stream released, name reusable —
// instead of leaking in the registration set (and being re-reported every
// interval) forever.
func TestRelayRetiredRejectedNameReusable(t *testing.T) {
	forEachKind(t, func(t *testing.T, k lifecycleKind) {
		type report struct {
			name string
			err  error
		}
		reports := make(chan report, 16)
		relay := NewRelay(
			WithRollupInterval(10*time.Millisecond),
			WithRelayOnError(func(name string, err error) { reports <- report{name, err} }),
		)
		s := newScript()
		s.end(fmt.Errorf("%w by server: feed gone", ErrRejected))
		if err := k.add(relay, "gone", s); err != nil {
			t.Fatal(err)
		}
		runRelay(t, relay)
		waitRetired(t, k, relay, "gone")
		select {
		case r := <-reports:
			if r.name != "gone" || !errors.Is(r.err, ErrRejected) {
				t.Fatalf("reported %q: %v, want gone: ErrRejected", r.name, r.err)
			}
		default:
			t.Fatal("rejection retired without being reported")
		}

		second := newScript()
		if err := k.add(relay, "gone", second); err != nil {
			t.Fatalf("re-adding retired name: %v", err)
		}
		second.deliveries <- 1
		waitAbsorbed(t, k, relay, []int{1})
		// Many intervals later: no re-reports.
		time.Sleep(50 * time.Millisecond)
		if n := len(reports); n != 0 {
			t.Fatalf("rejected upstream re-reported %d times", n)
		}
	})
}

// The lifecycle's refusals name the kind they refused.
func TestRelayUpstreamErrorsNameKind(t *testing.T) {
	forEachKind(t, func(t *testing.T, k lifecycleKind) {
		relay := NewRelay()
		defer relay.Close()
		kind := k.set(relay).kind
		if k.name == "rollup" && kind != "rollup upstream" {
			t.Fatalf("rollup kind is %q", kind)
		}
		wantErr := func(err error, text string) {
			t.Helper()
			if err == nil || !strings.Contains(err.Error(), text) {
				t.Fatalf("got %v, want an error containing %q", err, text)
			}
		}
		wantErr(k.remove(relay, "x"), "unknown "+kind+` "x"`)
		if err := k.add(relay, "a", newScript()); err != nil {
			t.Fatal(err)
		}
		wantErr(k.add(relay, "a", newScript()), "duplicate "+kind+` "a"`)
		wantErr(k.add(relay, strings.Repeat("n", maxFeedName+1), newScript()), kind+" name exceeds")
		relay.mu.Lock()
		k.set(relay).byName["a"].removing = true
		relay.mu.Unlock()
		wantErr(k.remove(relay, "a"), kind+` "a" already being removed`)
	})
}

// Tentpole: cursor-preserving migration of a dialed upstream. The producer
// moves from src to dst mid-stream; each relay sees its half exactly once —
// the two merged heads sum to the producer's total with zero Missed.
func TestRebalanceNoDupNoGap(t *testing.T) {
	hb := newTestHB(t)
	srv := NewServer()
	srv.PublishHeartbeat("app", hb)
	addr := startServer(t, srv)

	src := NewRelay(WithRollupInterval(10 * time.Millisecond))
	dst := NewRelay(WithRollupInterval(10 * time.Millisecond))
	up, err := src.DialUpstream("app", addr, "app")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Relay{src, dst} {
		r := r
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); r.Run(ctx) }()
		t.Cleanup(func() { cancel(); <-done; r.Close() })
	}

	beatN(hb, 300)
	deadline := time.Now().Add(10 * time.Second)
	for up.Cursor() < 300 {
		if time.Now().After(deadline) {
			t.Fatalf("src upstream stuck at %d", up.Cursor())
		}
		time.Sleep(2 * time.Millisecond)
	}

	c2, err := Rebalance(src, dst, "app", addr, "app")
	if err != nil {
		t.Fatal(err)
	}
	beatN(hb, 300)
	for c2.Cursor() < 600 {
		if time.Now().After(deadline) {
			t.Fatalf("dst upstream stuck at %d", c2.Cursor())
		}
		time.Sleep(2 * time.Millisecond)
	}

	if got := src.MergedHead(); got != 300 {
		t.Fatalf("src merged head %d, want 300 (its half, exactly once)", got)
	}
	if got := dst.MergedHead(); got != 300 {
		t.Fatalf("dst merged head %d, want 300 (no replay, no gap)", got)
	}
	if c2.Missed() != 0 {
		t.Fatalf("handoff gapped: dst client missed %d", c2.Missed())
	}
	if apps := src.Apps(); len(apps) != 0 {
		t.Fatalf("src still tracks %v", apps)
	}
	if apps := dst.Apps(); !reflect.DeepEqual(apps, []string{"app"}) {
		t.Fatalf("dst tracks %v, want [app]", apps)
	}

	// Repeated moves over a deep delivered history: every re-home resumes
	// at the consumed cursor, so however often the upstream goes back and
	// forth, neither relay merges an already-delivered record twice.
	t.Run("round-trips", func(t *testing.T) {
		const history, roundTrips = 1 << 14, 4
		hb := newTestHB(t)
		srv := NewServer()
		srv.PublishHeartbeat("app", hb)
		addr := startServer(t, srv)
		relays := [2]*Relay{
			NewRelay(WithRollupInterval(10 * time.Millisecond)),
			NewRelay(WithRollupInterval(10 * time.Millisecond)),
		}
		up, err := relays[0].DialUpstream("app", addr, "app")
		if err != nil {
			t.Fatal(err)
		}
		runRelay(t, relays[0])
		runRelay(t, relays[1])
		beatN(hb, history)
		waitMergedHead(t, relays[0], history)

		for i := 0; i < 2*roundTrips; i++ {
			if up, err = Rebalance(relays[i%2], relays[1-i%2], "app", addr, "app"); err != nil {
				t.Fatalf("move %d: %v", i+1, err)
			}
		}
		// A move that re-dialed from zero would replay the history into
		// the destination; wait for the last upstream to reach the head
		// before counting.
		deadline := time.Now().Add(10 * time.Second)
		for up.Cursor() < history {
			if time.Now().After(deadline) {
				t.Fatalf("final upstream stuck at %d", up.Cursor())
			}
			time.Sleep(2 * time.Millisecond)
		}
		if got := relays[0].MergedHead() + relays[1].MergedHead(); got != history {
			t.Fatalf("merged heads sum to %d after %d round trips, want %d (no replay)", got, roundTrips, history)
		}
	})
}

// Tentpole: stream-object migration for upstreams that cannot re-dial. The
// detached stream's internal cursor carries the position, so delivery
// continues on dst exactly where src stopped.
func TestRebalanceStreamNoDupNoGap(t *testing.T) {
	hb := newTestHB(t)
	src := NewRelay(WithRollupInterval(10 * time.Millisecond))
	dst := NewRelay(WithRollupInterval(10 * time.Millisecond))
	if err := src.AddUpstream("a", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Relay{src, dst} {
		r := r
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); r.Run(ctx) }()
		t.Cleanup(func() { cancel(); <-done; r.Close() })
	}

	beatN(hb, 100)
	waitMergedHead(t, src, 100)
	if err := RebalanceStream(src, dst, "a"); err != nil {
		t.Fatal(err)
	}
	beatN(hb, 100)
	waitMergedHead(t, dst, 100)

	if got := src.MergedHead(); got != 100 {
		t.Fatalf("src merged head %d, want 100", got)
	}
	recs, missed := drainMergedFeed(t, dst, 100)
	if missed != 0 || len(recs) != 100 {
		t.Fatalf("dst saw %d records + %d missed, want exactly the second 100", len(recs), missed)
	}
}

// Tentpole: ring-lap shedding is counted, not silent. A subscriber that
// fell behind a small retained window is advanced past the lapped span and
// the skip shows up per-subscriber (ShedCounter) and relay-wide (Shed),
// always inside the Missed the same subscriber observed.
func TestRelayShedOnLap(t *testing.T) {
	relay := NewRelay(WithRollupInterval(10*time.Millisecond), WithMergedRetain(32))
	hb := newTestHB(t)
	if err := relay.AddUpstream("a", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); relay.Run(ctx) }()
	defer func() { cancel(); <-done; relay.Close() }()

	beatN(hb, 100)
	waitMergedHead(t, relay, 100)

	s, err := relay.MergedFeed()(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	nctx, ncancel := context.WithTimeout(context.Background(), 5*time.Second)
	b, err := s.Next(nctx)
	ncancel()
	if err != nil {
		t.Fatal(err)
	}
	// Seqs 1..68 were lapped out of the 32-slot window: delivered 69..100,
	// Missed 68, all 68 attributed to this hop as shed.
	if len(b.Records) != 32 || b.Missed != 68 {
		t.Fatalf("lapped read delivered %d records, missed %d; want 32 and 68", len(b.Records), b.Missed)
	}
	sc, ok := s.(ShedCounter)
	if !ok {
		t.Fatal("merged feed stream does not expose ShedCounter")
	}
	if sc.Shed() != 68 {
		t.Fatalf("subscriber shed %d, want 68", sc.Shed())
	}
	if relay.Shed() != 68 {
		t.Fatalf("relay shed %d, want 68", relay.Shed())
	}
	if sc.Shed() > b.Missed {
		t.Fatalf("shed %d exceeds missed %d: shed must refine Missed", sc.Shed(), b.Missed)
	}

	// The frame path charges identically (the server's zero-copy read).
	relay.mu.Lock()
	fb, _, shed := relay.core.merged.frameSince(0, maxRelayBatch)
	relay.mu.Unlock()
	if fb != nil {
		fb.release()
	}
	if shed != 68 {
		t.Fatalf("frameSince shed %d, want 68", shed)
	}
	if relay.Shed() != 136 {
		t.Fatalf("relay shed %d after two lapped reads, want 136", relay.Shed())
	}
}

// Tentpole: the WithShedLag policy sheds before the ring laps — an explicit
// backpressure bound on how far behind a subscriber may trail.
func TestRelayShedLag(t *testing.T) {
	relay := NewRelay(
		WithRollupInterval(10*time.Millisecond),
		WithMergedRetain(1<<12), // ample: only the policy can shed
		WithShedLag(16),
	)
	hb := newTestHB(t)
	if err := relay.AddUpstream("a", observer.HeartbeatStream(hb)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); relay.Run(ctx) }()
	defer func() { cancel(); <-done; relay.Close() }()

	beatN(hb, 100)
	waitMergedHead(t, relay, 100)

	s, err := relay.MergedFeed()(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	nctx, ncancel := context.WithTimeout(context.Background(), 5*time.Second)
	b, err := s.Next(nctx)
	ncancel()
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Records) != 16 || b.Missed != 84 {
		t.Fatalf("lag-bounded read delivered %d records, missed %d; want 16 and 84", len(b.Records), b.Missed)
	}
	if got := s.(ShedCounter).Shed(); got != 84 {
		t.Fatalf("subscriber shed %d, want 84", got)
	}
	if relay.Shed() != 84 {
		t.Fatalf("relay shed %d, want 84", relay.Shed())
	}

	// A caught-up subscriber sheds nothing further.
	nctx2, ncancel2 := context.WithTimeout(context.Background(), 100*time.Millisecond)
	_, err = s.Next(nctx2)
	ncancel2()
	if err == nil {
		t.Fatal("idle read returned data")
	}
	if got := s.(ShedCounter).Shed(); got != 84 {
		t.Fatalf("idle read changed shed to %d", got)
	}
}
