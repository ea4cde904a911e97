package hbshm

import (
	"time"

	"repro/clock"
	"repro/observer"
)

// Stream adapts a Reader to observer.Stream: the polled cursor loop every
// medium without a wake-up channel shares (observer.ReaderStream), so it
// has the same replay-resync-loss semantics as every other stream in the
// system — records newer than the cursor delivered oldest to newest, lapped
// records surfacing exactly once as Missed, a recreated region
// resynchronizing from the start, io.EOF once the writer closed and
// everything published was delivered. The idle tick is three atomic loads
// of shared header words (cursor, reserved head, closed) every poll
// interval; Recycle makes the observation path allocation-free. What
// Stream adds is ownership: Close releases the reader's mapping.
type Stream struct {
	*observer.PolledStream
	r *Reader
}

var _ observer.Stream = (*Stream)(nil)

// StreamFrom returns a Stream over r resuming after sequence number since
// (0 streams the retained history first). poll paces idle checks (<= 0
// selects observer.DefaultPollInterval); clk interprets the waits (nil is
// the wall clock — a virtual clock makes an idle tail a simulation event).
func StreamFrom(r *Reader, poll time.Duration, since uint64, clk clock.Clock) *Stream {
	return &Stream{observer.ReaderStream(r, poll, since, clk), r}
}

// Close releases the underlying reader's mapping.
func (s *Stream) Close() error { return s.r.Close() }
