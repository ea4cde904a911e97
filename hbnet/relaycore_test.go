package hbnet

import (
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/heartbeat"
	"repro/observer"
)

// The core runs a relay's lifecycle on one goroutine with time as an
// argument: registration, absorption, window ticks, a removal and a stream
// end. A removal's final partial window lands in the rollup ring in the
// same call that retires the upstream, so the emissions stay in window
// order and every absorbed record is counted in exactly one window.
func TestRelayCoreLifecycleOnOneGoroutine(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var seq uint64
	batch := func(n int, missed uint64) observer.Batch {
		b := observer.Batch{Missed: missed}
		for i := 0; i < n; i++ {
			seq++
			b.Records = append(b.Records, heartbeat.Record{Seq: seq, Time: at(int(seq))})
		}
		b.Count = seq
		return b
	}

	c := newRelayCore(16, 0, t0)
	a := &relayUpstream{name: "a", stream: &stepStream{}}
	b := &relayUpstream{name: "b", stream: &stepStream{}}
	for _, up := range []*relayUpstream{a, b} {
		if err := c.register(&c.raw, up); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.register(&c.raw, &relayUpstream{name: "a", stream: &stepStream{}}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("second %q: %v, want a duplicate error", "a", err)
	}

	c.absorb(&relayEvent{up: a, batch: batch(3, 0)})
	c.absorb(&relayEvent{up: b, batch: batch(2, 1)})
	c.tick(at(1000))
	c.absorb(&relayEvent{up: a, batch: batch(4, 0)})
	if _, err := c.unregister(&c.raw, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.unregister(&c.raw, "a"); err == nil || !strings.Contains(err.Error(), "already being removed") {
		t.Fatalf("second removal: %v", err)
	}
	c.retire(a, at(1500))
	c.tick(at(2000))
	if !c.ended(b, at(2500)) {
		t.Fatal("a stream end with no removal under way did not retire the upstream")
	}
	if len(c.upstreams()) != 0 {
		t.Fatalf("registrations left: %d", len(c.upstreams()))
	}

	// Merged history: re-sequenced, widened by b's one missed seq, each
	// record carrying its upstream's hop-local id.
	recs, cur, _ := c.merged.readSince(0, maxRelayBatch)
	var ids []int32
	for _, rec := range recs {
		ids = append(ids, rec.Producer)
	}
	if cur != 10 || !reflect.DeepEqual(ids, []int32{0, 0, 0, 1, 1, 0, 0, 0, 0}) {
		t.Fatalf("merged head %d, producers %v", cur, ids)
	}

	// Rollup emissions: tick, a's final window, tick. b's stream end adds
	// none: b's window since the last tick is silent.
	rs, _, emissions := c.rollups.readSince(0)
	type window struct {
		app      string
		end      time.Time
		recs, ms uint64
	}
	var got []window
	for _, r := range rs {
		got = append(got, window{r.App, r.End, r.Records, r.Missed})
	}
	want := []window{
		{"a", at(1000), 3, 0}, {"b", at(1000), 2, 1},
		{"a", at(1500), 4, 0},
		{"b", at(2000), 0, 0},
	}
	if emissions != 3 || !reflect.DeepEqual(got, want) {
		t.Fatalf("%d emissions:\n got %v\nwant %v", emissions, got, want)
	}

	if ups := c.close(); len(ups) != 0 {
		t.Fatalf("close returned %d registrations", len(ups))
	}
	if err := c.register(&c.raw, &relayUpstream{name: "c", stream: &stepStream{}}); err == nil {
		t.Fatal("a closed core took a registration")
	}
}

// One wake rule for all three rings: a ring's wake channel exists only
// while a subscriber is parked on it, and only a move of that ring closes
// it. A rollup subscriber parked through a merged-ring append stays parked;
// the next window tick wakes it with the emission.
func TestRelayWakesOnlyParkedSubscribers(t *testing.T) {
	r := NewRelay()
	up := &relayUpstream{name: "a", stream: &stepStream{}}
	if err := r.register(&r.core.raw, up); err != nil {
		t.Fatal(err)
	}
	wakeChan := func() chan struct{} {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.rollupsWait.ch
	}
	r.flushRollups()
	if wakeChan() != nil {
		t.Fatal("an emission with no subscriber parked made a wake channel")
	}

	s, err := r.RollupFeed()(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan RollupBatch, 1)
	go func() {
		b, err := s.Next(context.Background())
		if err != nil {
			t.Error(err)
		}
		got <- b
	}()
	var parked chan struct{}
	for deadline := time.Now().Add(10 * time.Second); parked == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the rollup subscriber never parked")
		}
		parked = wakeChan()
	}

	r.absorb(relayEvent{up: up, batch: observer.Batch{Records: []heartbeat.Record{{Seq: 1, Time: time.Now()}}, Count: 1}})
	select {
	case <-parked:
		t.Fatal("a merged-ring append woke the rollup subscriber")
	default:
	}

	r.flushRollups()
	b := <-got
	if b.Cursor != 2 || len(b.Rollups) != 1 || b.Rollups[0].Records != 1 {
		t.Fatalf("woken with %+v, want emission 2 with a's one record", b)
	}
	if wakeChan() != nil {
		t.Fatal("the tick left the rollup ring's wake channel open")
	}
}
