package balance

import (
	"context"
	"errors"
	"io"
	"testing"

	"repro/hbnet"
	"repro/observer"
)

// chanStream adapts a channel of batches to hbnet.RollupStream.
type chanStream struct{ ch chan hbnet.RollupBatch }

func (s chanStream) Next(ctx context.Context) (hbnet.RollupBatch, error) {
	select {
	case b, ok := <-s.ch:
		if !ok {
			return hbnet.RollupBatch{}, io.EOF
		}
		return b, nil
	case <-ctx.Done():
		return hbnet.RollupBatch{}, ctx.Err()
	}
}

func chanFeed(ch chan hbnet.RollupBatch) hbnet.RollupFeed {
	return func(ctx context.Context, since uint64) (hbnet.RollupStream, error) {
		return chanStream{ch}, nil
	}
}

// TestRunDrainsAndReclaimsFromFeed drives the updater end to end over a
// RollupFeed: a node flatlines in the feed and drains from the table
// while its healthy peer keeps full weight.
func TestRunDrainsAndReclaimsFromFeed(t *testing.T) {
	u, _ := newTestUpdater(DefaultPolicy())
	ch := make(chan hbnet.RollupBatch)
	done := make(chan error, 1)
	go func() { done <- u.Run(context.Background(), chanFeed(ch), 0) }()

	emit := func(rs ...observer.Rollup) {
		ch <- hbnet.RollupBatch{Rollups: rs}
	}
	emit(live("a", 0), live("b", 0))
	emit(silent("a"), live("b", 0))
	emit(silent("a"), live("b", 0))
	emit(silent("a"), live("b", 0))
	close(ch)
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if w := u.Weight("a"); w != 0 {
		t.Fatalf("flatlined node weight = %v, want 0 after feed drain", w)
	}
	if w := u.Weight("b"); w != 1 {
		t.Fatalf("healthy node weight = %v, want 1", w)
	}
	// All of b's traffic, none of a's.
	for k := uint64(0); k < 128; k++ {
		n, ok := u.table.Pick(k)
		if !ok || n != "b" {
			t.Fatalf("key %d -> %q, want b", k, n)
		}
	}
}

func TestRunReturnsContextError(t *testing.T) {
	u, _ := newTestUpdater(DefaultPolicy())
	ch := make(chan hbnet.RollupBatch)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- u.Run(ctx, chanFeed(ch), 0) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel = %v, want context.Canceled", err)
	}
}

// TestStatusHookSignature wires the hook the way a Hub would call it.
func TestStatusHookSignature(t *testing.T) {
	u, _ := newTestUpdater(DefaultPolicy())
	u.Absorb(live("a", 0))
	hook := u.StatusHook()
	hook("a", observer.Status{Health: observer.Flatlined})
	if w := u.Weight("a"); w != 0 {
		t.Fatalf("status hook did not drain: weight %v", w)
	}
}

func TestActuatorShapesLiveWeight(t *testing.T) {
	var got []float64
	u := NewUpdater(New(WithBuckets(64)), Policy{MinDelta: 0}, WithActuator(func(node string, proposed float64) float64 {
		got = append(got, proposed)
		return proposed * 0.8
	}))
	u.Absorb(live("a", 0))
	if w := u.Weight("a"); w != 0.8 {
		t.Fatalf("actuated weight = %v, want 0.8", w)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("actuator saw proposals %v, want [1]", got)
	}
	// Drains bypass the actuator: liveness stays with the policy.
	u.Absorb(silent("a"), silent("a"))
	if w := u.Weight("a"); w != 0 {
		t.Fatalf("drain was actuated away: weight %v", w)
	}
}

func TestForgetRemovesNode(t *testing.T) {
	u, swaps := newTestUpdater(DefaultPolicy())
	u.Absorb(live("a", 0), live("b", 0))
	n := len(*swaps)
	sw := u.Forget("a")
	if sw.Old != 1 || sw.New != 0 {
		t.Fatalf("forget swap = %+v", sw)
	}
	if len(*swaps) != n+1 {
		t.Fatalf("forget did not report its swap")
	}
	if got := u.table.state.Load().nodes; len(got) != 1 || got[0] != "b" {
		t.Fatalf("nodes after forget = %v", got)
	}
	// A later rollup re-admits it fresh.
	u.Absorb(live("a", 0))
	if w := u.Weight("a"); w != 1 {
		t.Fatalf("re-admitted node weight = %v", w)
	}
}
