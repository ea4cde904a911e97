package hbnet //hbvet:pure

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/heartbeat"
	"repro/observer"
)

// errFeedEnded is frame's verdict on an eof frame: the feed ended cleanly.
var errFeedEnded = errors.New("hbnet: feed ended")

// clientCore is a subscription's protocol: the wire cursor and the hello
// sent from it, the verdict on the answer, what each frame does to the
// cursor and the batch handed out, whether a connection's end is terminal
// or redials, and the jittered backoff. It has no goroutines, channels,
// locks, context or clock; the shell (Client) owns those, and only its
// reader goroutine calls the core once dial has returned.
type clientCore struct {
	feed string
	kind byte // frameBatch (Dial) or frameRollup (DialRollup)
	// wire is the newest cursor read off the wire, where a redial resumes:
	// batches between it and the delivered cursor wait in the shell's
	// read-ahead, so asking for them again would deliver duplicates.
	wire      uint64
	reconnect bool
	rng       *rand.Rand
	pace      backoff // connections that die right after their handshake
	dials     backoff // the failed dials of one redial
}

// netMsg is one decoded delivery: a raw or a rollup batch (per the kind),
// the server cursor after it and what it reports missed.
type netMsg struct {
	b              observer.Batch
	rb             RollupBatch
	cursor, missed uint64
}

func (c *clientCore) hello() []byte { return framed(appendHello(nil, c.feed, c.wire)) }

// welcome judges the server's answer to hello: nil to stream, an
// ErrRejected error when retrying cannot help, any other error when it may.
func (c *clientCore) welcome(ftype byte, body []byte) error {
	switch ftype {
	case frameWelcome:
		cursor, err := decodeWelcome(body)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrRejected, err)
		}
		if cursor != c.wire {
			// The echo proves the server parsed the hello we sent; a
			// mismatch means the stream would resume from the wrong spot.
			return fmt.Errorf("%w: welcome echoes cursor %d, sent %d", ErrRejected, cursor, c.wire)
		}
		return nil
	case frameError:
		msg, permanent := decodeError(body)
		if permanent {
			return fmt.Errorf("%w by server: %s", ErrRejected, msg)
		}
		return fmt.Errorf("hbnet: server: %s", msg) // transient (a feed file mid-recreation): redial
	}
	return fmt.Errorf("%w: unexpected frame %#x during handshake", ErrRejected, ftype)
}

// frame applies one frame read off the wire: a batch of the subscribed
// kind, decoded into recs' storage when raw, is the delivery to hand out
// and moves the wire cursor. An eof frame returns errFeedEnded; any other
// error ends the connection, for good when it is an ErrRejected one.
func (c *clientCore) frame(ftype byte, body []byte, recs []heartbeat.Record) (nb netMsg, err error) {
	switch {
	case ftype == frameBatch && c.kind == frameBatch:
		nb.b, nb.cursor, err = decodeBatchInto(body, recs)
		nb.b.Count, nb.missed = nb.cursor, nb.b.Missed // the batch reports where its reader stands: the wire cursor
	case ftype == frameRollup && c.kind == frameRollup:
		nb.rb, err = decodeRollups(body)
		nb.cursor, nb.missed = nb.rb.Cursor, nb.rb.Missed
	case ftype == frameBatch || ftype == frameRollup:
		// The server keeps streaming the same kind: redialing cannot heal it.
		return nb, fmt.Errorf("%w: feed %q streams %s — subscribe with %s", ErrRejected, c.feed, kindNames[ftype][0], kindNames[ftype][1])
	case ftype == frameEOF:
		return nb, errFeedEnded
	case ftype == frameError:
		msg, permanent := decodeError(body)
		if permanent {
			// The server cannot frame the stream (a batch over the cap or
			// with no cursor): a redial would meet the same batch.
			return nb, fmt.Errorf("%w by server: %s", ErrRejected, msg)
		}
		return nb, fmt.Errorf("hbnet: server: %s", msg) // the redial re-opens the feed: the failure may be transient
	default:
		return nb, fmt.Errorf("hbnet: unexpected frame %#x", ftype)
	}
	if err != nil {
		return netMsg{}, err // the framing is gone: redial from the last good cursor
	}
	c.wire = nb.cursor
	return nb, nil
}

// kindNames names each batch kind and the dial that subscribes to it.
var kindNames = map[byte][2]string{frameBatch: {"raw records", "Dial, not DialRollup"}, frameRollup: {"rollups", "DialRollup, not Dial"}}

// ended decides a connection's end, given the error that ended it, how
// long the connection lived and whether the client was closed: the wait
// before redialing, or the terminal error Next reports once the read-ahead
// drains.
func (c *clientCore) ended(err error, lived time.Duration, closed bool) (time.Duration, error) {
	switch {
	case err == errFeedEnded || closed:
		return 0, io.EOF
	case errors.Is(err, ErrRejected) || !c.reconnect:
		return 0, err
	}
	c.dials.reset()
	if lived >= time.Second {
		c.pace.reset()
		return 0, nil
	}
	// A connection that handshakes fine and then dies at once (a feed whose
	// stream errors every time) would otherwise cycle at RTT speed.
	return c.jitter(c.pace.next()), nil
}

// dialFailed decides a failed redial: the wait before the next, or
// terminal when the server answered and said no — hammering cannot help.
func (c *clientCore) dialFailed(err error) (time.Duration, error) {
	if errors.Is(err, ErrRejected) {
		return 0, err
	}
	return c.jitter(c.dials.next()), nil
}

// jitter draws a full-jitter wait, uniform in (0, d]: the backoff bounds
// the wait, the draw desynchronizes a fleet that lost one server at once.
func (c *clientCore) jitter(d time.Duration) time.Duration {
	if d <= time.Millisecond {
		return d // too short to meaningfully spread; keep pacing exact
	}
	return time.Duration(c.rng.Int63n(int64(d))) + 1
}

// backoff is a capped doubling wait: next returns min, then twice the
// previous wait up to max, until reset starts over at min.
type backoff struct{ min, max, cur time.Duration }

func (b *backoff) next() time.Duration {
	if b.cur == 0 {
		b.cur = b.min
	} else if b.cur *= 2; b.cur > b.max {
		b.cur = b.max
	}
	return b.cur
}

func (b *backoff) reset() { b.cur = 0 }
