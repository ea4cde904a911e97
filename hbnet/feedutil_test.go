package hbnet

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"repro/observer"
)

func mkRollups(app string) []observer.Rollup {
	return []observer.Rollup{{App: app, Records: 1}}
}

// fakeRollupStream ends with the given error after draining its batches.
type fakeRollupStream struct {
	batches []RollupBatch
	err     error
	closed  bool
}

func (s *fakeRollupStream) Next(ctx context.Context) (RollupBatch, error) {
	if len(s.batches) == 0 {
		return RollupBatch{}, s.err
	}
	b := s.batches[0]
	s.batches = s.batches[1:]
	return b, nil
}

func (s *fakeRollupStream) Close() error {
	s.closed = true
	return nil
}

func TestConsumeCleanEndAndClose(t *testing.T) {
	s := &fakeRollupStream{
		batches: []RollupBatch{
			{Cursor: 1, Rollups: mkRollups("a")},
			{Cursor: 2},            // empty delivery: skipped
			{Cursor: 3, Missed: 2}, // loss-only delivery: delivered
			{Cursor: 4, Rollups: mkRollups("b")},
		},
		err: io.EOF,
	}
	feed := RollupFeed(func(ctx context.Context, since uint64) (RollupStream, error) {
		if since != 7 {
			t.Fatalf("feed opened at %d, want 7", since)
		}
		return s, nil
	})
	var got []uint64
	err := feed.Consume(context.Background(), 7, func(b RollupBatch) error {
		got = append(got, b.Cursor)
		return nil
	})
	if err != nil {
		t.Fatalf("Consume on clean end = %v, want nil", err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 4 {
		t.Fatalf("delivered cursors %v, want [1 3 4]", got)
	}
	if !s.closed {
		t.Fatal("Consume did not close the stream")
	}
}

func TestConsumeStopsOnCallbackError(t *testing.T) {
	s := &fakeRollupStream{
		batches: []RollupBatch{{Cursor: 1, Rollups: mkRollups("a")}, {Cursor: 2, Rollups: mkRollups("a")}},
		err:     io.EOF,
	}
	feed := RollupFeed(func(ctx context.Context, since uint64) (RollupStream, error) { return s, nil })
	stop := errors.New("enough")
	n := 0
	err := feed.Consume(context.Background(), 0, func(RollupBatch) error { n++; return stop })
	if !errors.Is(err, stop) {
		t.Fatalf("Consume = %v, want the callback's error", err)
	}
	if n != 1 {
		t.Fatalf("callback ran %d times after erroring, want 1", n)
	}
	if !s.closed {
		t.Fatal("stream left open after callback error")
	}
}

func TestConsumeSurfacesStreamError(t *testing.T) {
	broken := errors.New("wire snapped")
	feed := RollupFeed(func(ctx context.Context, since uint64) (RollupStream, error) {
		return &fakeRollupStream{err: broken}, nil
	})
	if err := feed.Consume(context.Background(), 0, func(RollupBatch) error { return nil }); !errors.Is(err, broken) {
		t.Fatalf("Consume = %v, want the stream error", err)
	}
}

// TestDialRollupFeedConsume runs the programmatic consumption helper
// against a live relay: DialRollupFeed adapts the remote rollup feed, and
// Consume accumulates conserved per-app counts.
func TestDialRollupFeedConsume(t *testing.T) {
	const perApp = 120
	hbs, _, addr := relayPair(t, 2, 20*time.Millisecond)

	for i := 0; i < perApp; i++ {
		for _, hb := range hbs {
			hb.Beat()
		}
	}
	for _, hb := range hbs {
		hb.Flush()
	}

	feed := DialRollupFeed(addr, "rollup")
	counts := map[string]uint64{}
	done := errors.New("done")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := feed.Consume(ctx, 0, func(b RollupBatch) error {
		if b.Missed != 0 {
			t.Fatalf("lapped %d emissions in a short run", b.Missed)
		}
		for _, r := range b.Rollups {
			counts[r.App] += r.Records + r.Missed
		}
		if counts["a"] >= perApp && counts["b"] >= perApp {
			return done
		}
		return nil
	})
	if !errors.Is(err, done) {
		t.Fatalf("Consume = %v (counts %v)", err, counts)
	}
	if counts["a"] != perApp || counts["b"] != perApp {
		t.Fatalf("counts %v, want %d each — rollups must conserve", counts, perApp)
	}
}
