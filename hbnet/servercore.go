package hbnet //hbvet:pure

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/heartbeat"
	"repro/observer"
)

// maxHelloPayload is the largest legal hello: type, magic, version, the
// two varints and a maxFeedName name. The shell reads the hello under it.
const maxHelloPayload = 1 + 4 + 1 + 2*binary.MaxVarintLen64 + maxFeedName

// maxErrorMsg bounds an error frame's message, and maxWelcomePayload is
// the largest legal answer to a hello: an error frame (type, permanence
// flag, message) — a welcome is shorter. The client reads it under the cap.
const (
	maxErrorMsg       = 512
	maxWelcomePayload = 2 + maxErrorMsg
)

// serverCore is one subscriber's protocol: the verdict on its hello, the
// cursor its batch frames carry and the split of a batch over frames, and
// what an ending stream or a failed write means. It has no goroutines,
// channels, locks, context or clock; the shell (Server) owns the conn,
// opens the feed and writes under the deadlines.
type serverCore struct {
	name, kind string             // the feed the hello named; "rollup " for a rollup feed, for error text
	cursor     uint64             // the hello's, then the last batch frame's (batchFrames)
	perFrame   int                // records per batch frame
	held       observer.Batch     // the batch being framed
	rest       []heartbeat.Record // its records not yet framed
	missed     uint64             // its Missed not yet reported
}

// hello judges the subscriber's first frame and resolves the feed it
// names among feeds. A refusal returns the error and, when the subscriber
// spoke the protocol, the permanent error frame to send it.
func (c *serverCore) hello(ftype byte, body []byte, feeds map[string]feedEntry) (feedEntry, []byte, error) {
	if ftype != frameHello {
		return feedEntry{}, nil, fmt.Errorf("first frame is %#x, want hello", ftype)
	}
	name, since, err := decodeHello(body)
	if err != nil {
		return feedEntry{}, errorFrame(err.Error(), true), err
	}
	entry := feeds[name]
	if entry.raw == nil && entry.rollup == nil {
		err := fmt.Errorf("unknown feed %q", name)
		return feedEntry{}, errorFrame("hbnet: "+err.Error(), true), err
	}
	c.name, c.cursor = name, since
	if entry.rollup != nil {
		c.kind = "rollup "
	}
	return entry, nil, nil
}

// openFailed is the error frame for a feed that exists but failed to open:
// transient, since a file mid-recreation heals.
func (c *serverCore) openFailed(err error) []byte {
	return errorFrame(err.Error(), false)
}

// errorFrame frames an error report with its message cut to maxErrorMsg.
func errorFrame(msg string, permanent bool) []byte {
	return framed(appendError(nil, msg[:min(len(msg), maxErrorMsg)], permanent))
}

func (c *serverCore) welcome() []byte { return framed(appendWelcome(nil, c.cursor)) }

// ended decides what the end of the subscriber's stream means: the last
// frame to send (nil for none) and the error to report. A cancelled
// connection — the subscriber went away or the server closed — is not a
// failure.
func (c *serverCore) ended(err error, cancelled bool) ([]byte, error) {
	switch {
	case errors.Is(err, io.EOF):
		return framed([]byte{frameEOF}), nil
	case cancelled:
		return nil, nil
	}
	// A frame over the cap is permanent: redialing from the same cursor
	// would rebuild the same frame forever.
	return errorFrame(err.Error(), errors.Is(err, errFrameTooLarge)), fmt.Errorf("%sfeed %q: %w", c.kind, c.name, err)
}

// writeFailed judges a failed write, by ended's rule for cancellation.
func (c *serverCore) writeFailed(err error, cancelled bool) error {
	if cancelled {
		return nil
	}
	return fmt.Errorf("writing %sbatch: %w", c.kind, err)
}

// take starts framing b. splitting reports whether the batch being framed
// has records left, so the next frame continues it.
func (c *serverCore) take(b observer.Batch) { c.held, c.rest, c.missed = b, b.Records, b.Missed }

func (c *serverCore) splitting() bool { return len(c.rest) > 0 }

// batchFrame appends the next frame of the batch being framed to dst and
// reports whether it was the batch's last. A batch over perFrame records
// (a huge replay) goes out one chunk per frame rather than over the frame
// cap, which would make the client redial from the same cursor forever;
// the cursor advances per chunk, so a cut mid-split resumes exactly. A
// chunk reports the loss before its last record that it does not carry,
// and the last chunk the rest.
func (c *serverCore) batchFrame(dst []byte) ([]byte, bool) {
	chunk := c.held
	chunk.Records = c.rest[:min(len(c.rest), c.perFrame)]
	c.rest = c.rest[len(chunk.Records):]
	chunk.Missed = c.missed
	if len(c.rest) > 0 {
		chunk.Missed = min(c.missed, lossBefore(c.cursor, chunk.Records))
	}
	c.missed -= chunk.Missed
	c.cursor = advanceCursor(c.cursor, chunk)
	return appendBatch(dst, chunk, c.cursor), len(c.rest) == 0
}

// lossBefore counts the positions after cursor up to the last of recs
// that recs do not carry: what a chunk's cursor covers beyond its records.
// Zero-Seq records carry no positions, so the first chunk takes it all.
func lossBefore(cursor uint64, recs []heartbeat.Record) uint64 {
	last, n := recs[len(recs)-1].Seq, uint64(len(recs))
	switch {
	case last == 0:
		return ^uint64(0)
	case last < cursor:
		cursor = 0 // resync-down: the new seq space counts from zero
	}
	return max(last-cursor, n) - n
}

// advanceCursor computes the resume cursor after delivering b. For real
// sequence numbers the newest record's Seq is exact up to that record —
// also when it regressed below the cursor: the stream resynchronized to a
// restarted producer, and the cursor must follow it down (counting from
// zero, as lossBefore does) or the next resume would resync and replay
// again. Missed that trails the last Seq (a ring that lapped between its
// newest retained record and its head, or a new life's lost tail) is
// advanced past, or the next read would re-report it. Foreign zero-Seq
// streams fall back to counting records and losses.
func advanceCursor(cursor uint64, b observer.Batch) uint64 {
	if n := len(b.Records); n > 0 && b.Records[n-1].Seq > 0 {
		last := b.Records[n-1].Seq
		if last < cursor {
			cursor = 0 // resync-down: the new seq space counts from zero
		}
		span := last - cursor
		if accounted := uint64(n) + b.Missed; accounted > span {
			return last + (accounted - span) // trailing Missed
		}
		return last
	}
	return cursor + uint64(len(b.Records)) + b.Missed
}
