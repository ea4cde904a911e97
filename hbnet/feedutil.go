package hbnet

import (
	"context"
	"errors"
	"io"
)

// Consume opens the feed positioned after emission since and delivers
// every batch to fn, in order, until ctx ends (its error is returned), the
// feed ends (nil), or fn returns an error (returned as-is) — the loop an
// Updater's Run, hbmon's -balance mode and the simnet balancer sit on.
func (f RollupFeed) Consume(ctx context.Context, since uint64, fn func(RollupBatch) error) error {
	s, err := f(ctx, since)
	if err != nil {
		return err
	}
	if c, ok := s.(io.Closer); ok {
		defer c.Close()
	}
	for {
		b, err := s.Next(ctx)
		// Honor the non-blocking drain contract: data delivered alongside
		// an error is still data.
		if len(b.Rollups) > 0 || b.Missed > 0 {
			if ferr := fn(b); ferr != nil {
				return ferr
			}
		}
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}

// clientRollupStream adapts a rollup Client to the RollupStream interface
// (Client.Next serves raw feeds; rollup subscriptions read NextRollups).
type clientRollupStream struct{ c *Client }

func (s clientRollupStream) Next(ctx context.Context) (RollupBatch, error) {
	return s.c.NextRollups(ctx)
}

func (s clientRollupStream) Close() error { return s.c.Close() }

// DialRollupFeed adapts a remote rollup feed into a RollupFeed: each open
// dials addr and subscribes after the presented cursor, so what is written
// against a local Relay.RollupFeed() consumes a remote relay unchanged.
func DialRollupFeed(addr, feed string, opts ...ClientOption) RollupFeed {
	return func(ctx context.Context, since uint64) (RollupStream, error) {
		c, err := dial(addr, feed, since, frameRollup, opts)
		if err != nil {
			return nil, err
		}
		stop := context.AfterFunc(ctx, func() { c.Close() })
		return ctxRollupStream{clientRollupStream{c}, stop}, nil
	}
}

// ctxRollupStream closes the dialed client when the opening context ends,
// so a cancelled Consume does not leak the connection behind a blocked Next.
type ctxRollupStream struct {
	clientRollupStream
	stop func() bool
}

func (s ctxRollupStream) Close() error {
	s.stop()
	return s.clientRollupStream.Close()
}
