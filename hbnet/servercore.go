package hbnet //hbvet:pure

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

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
// frame each batch becomes, and what an ending stream or a failed write
// means. It has no goroutines, channels, locks, context or clock; the
// shell (Server) owns the conn, opens the feed and writes under the
// deadlines.
type serverCore struct {
	name, kind string // the feed the hello named; "rollup " for a rollup feed, for error text
	cursor     uint64 // the hello's: where the subscriber's stream opens
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
	// A frame over the cap, or a batch with no cursor, is permanent:
	// redialing from the same cursor would rebuild the same frame forever.
	permanent := errors.Is(err, errFrameTooLarge) || errors.Is(err, errNoCursor)
	return errorFrame(err.Error(), permanent), fmt.Errorf("%sfeed %q: %w", c.kind, c.name, err)
}

// writeFailed judges a failed write, by ended's rule for cancellation.
func (c *serverCore) writeFailed(err error, cancelled bool) error {
	if cancelled {
		return nil
	}
	return fmt.Errorf("writing %sbatch: %w", c.kind, err)
}

// errNoCursor refuses a batch that moves the stream without naming where
// its reader stands: records or loss at Count 0 leave the subscriber no
// cursor to resume from, on this connection or any redial.
var errNoCursor = errors.New("hbnet: batch carries records or loss at Count 0, no cursor to resume from")

// batchFrame appends the frame that carries b to dst: the whole batch, at
// the cursor its stream reports (Count), which the subscriber resumes from
// after a cut. A batch is never split: every built-in stream reads at most
// a cursor.Page, far inside the frame cap, and a foreign batch over the cap
// ends the subscription (seal's errFrameTooLarge).
func (c *serverCore) batchFrame(dst []byte, b observer.Batch) ([]byte, error) {
	if b.Count == 0 && (len(b.Records) > 0 || b.Missed > 0) {
		return nil, errNoCursor
	}
	return appendBatch(dst, b, b.Count), nil
}
