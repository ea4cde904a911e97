package hbnet

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/heartbeat"
	"repro/observer"
)

// This file is the encode-once fan-out machinery: at high fan-out every
// subscriber of a feed used to re-run appendBatch over the same records —
// N subscribers, N encodes, N scratch buffers of identical bytes. A
// frameBuf is one encoded, length-prefixed batch frame shared by every
// subscriber positioned at the same cursor; the replay ring encodes it
// once (frameSince) and the server writes the identical bytes to each
// connection.

// frameBuf is a pooled, reference-counted encoded frame. The encoding
// cache (replayRing) holds one reference and each subscriber writing the
// frame holds its own, so a slow subscriber disconnecting mid-write — or
// the cache moving on to a newer frame — can never return the buffer to
// the pool while another subscriber's Write is still reading it.
type frameBuf struct {
	data []byte
	refs atomic.Int32
}

// framePool is a bounded free list, not a sync.Pool: the GC empties pools
// every cycle, and a relay under load cycles GC fast enough that pooled
// catch-up frames (megabytes each) would be reallocated — and zeroed —
// over and over. The cap bounds retained storage; a frame released into a
// full list is simply dropped for the GC.
var framePool = struct {
	mu   sync.Mutex
	free []*frameBuf
}{}

const maxPooledFrames = 16

// newFrameBuf returns an empty buffer holding one reference.
func newFrameBuf() *frameBuf {
	framePool.mu.Lock()
	var fb *frameBuf
	if n := len(framePool.free); n > 0 {
		fb = framePool.free[n-1]
		framePool.free[n-1] = nil
		framePool.free = framePool.free[:n-1]
	}
	framePool.mu.Unlock()
	if fb == nil {
		fb = new(frameBuf)
	}
	fb.data = fb.data[:0]
	fb.refs.Store(1)
	return fb
}

func (fb *frameBuf) retain() { fb.refs.Add(1) }

// release drops one reference; the last one returns the buffer (and its
// storage) to the pool.
func (fb *frameBuf) release() {
	if n := fb.refs.Add(-1); n == 0 {
		framePool.mu.Lock()
		if len(framePool.free) < maxPooledFrames {
			framePool.free = append(framePool.free, fb)
		}
		framePool.mu.Unlock()
	} else if n < 0 {
		panic("hbnet: frameBuf released more often than retained")
	}
}

// frameStream is the zero-copy fast path of a feed's stream: NextFrame
// returns the next delivery as an encoded, ref-counted batch frame whose
// bytes are shared with every other subscriber at the same cursor. The
// caller owns one reference and must release it after writing. It follows
// Next's blocking and error contract (io.EOF at stream end, ctx errors on
// cancellation). Streams whose encodes cannot be shared simply don't
// reach the server's push loop through an encode adapter (feedEntry.open).
type frameStream interface {
	NextFrame(ctx context.Context) (*frameBuf, error)
}

// open opens one subscriber's stream positioned after since and returns it
// as the frameStream the server's push loop drives, plus the opened stream
// itself (closed with the connection when it implements io.Closer). A
// stream that already shares its encodes is used directly; a plain
// observer.Stream or a RollupStream gets a per-connection encode adapter.
func (e feedEntry) open(ctx context.Context, since uint64) (frameStream, any, error) {
	if e.rollup != nil {
		rs, err := e.rollup(ctx, since)
		if err != nil {
			return nil, nil, err
		}
		return &rollupFrames{stream: rs, fb: newPrivateFrameBuf()}, rs, nil
	}
	st, err := e.raw(ctx, since)
	if err != nil {
		return nil, nil, err
	}
	if fs, ok := st.(frameStream); ok {
		return fs, st, nil
	}
	bf := &batchFrames{stream: st, cursor: since, fb: newPrivateFrameBuf()}
	bf.rec, _ = st.(BatchRecycler)
	return bf, st, nil
}

// newPrivateFrameBuf returns the one buffer an encode adapter reuses for
// every frame of its connection: the steady-state push is one buffer, one
// Write, no per-batch allocation. The adapter keeps a reference for life,
// so the buffer never enters the shared pool.
func newPrivateFrameBuf() *frameBuf {
	fb := &frameBuf{data: make([]byte, 0, 4096)}
	fb.refs.Store(1)
	return fb
}

// seal finishes a frame encoded into a private buffer behind a 4-byte
// length placeholder: the size guard, the length prefix in place, and the
// reference the push loop releases after writing.
func (fb *frameBuf) seal(framed []byte) (*frameBuf, error) {
	fb.data = framed
	if len(framed)-4 > maxFramePayload {
		// Cannot happen with the record and rollup caps; guard it with a
		// visible, permanent error rather than a silent livelock.
		return nil, errFrameTooLarge
	}
	binary.BigEndian.PutUint32(framed, uint32(len(framed)-4))
	fb.retain()
	return fb, nil
}

// batchFrames encodes a plain observer.Stream for one connection. It owns
// the wire cursor arithmetic (advanceCursor) and the frame-size split.
type batchFrames struct {
	stream observer.Stream
	// The encode never retains records past appendBatch, so streams that
	// can reuse their record storage get each batch back as soon as its
	// last byte is framed — the server side of the same recycling contract
	// the Relay pump uses on its upstream clients.
	rec    BatchRecycler
	cursor uint64
	fb     *frameBuf
	held   observer.Batch     // the batch being framed
	rest   []heartbeat.Record // its records not yet framed
}

// NextFrame frames the next delivery. A huge replay (a subscriber dialing
// from 0 against a very large retained history arrives as ONE batch) must
// not exceed the frame cap — aborting would make the client redial from
// the same cursor and rebuild the same batch forever — so a batch over
// maxRecordsPerFrame goes out one chunk per call; the cursor advances per
// chunk, so even a disconnect mid-split resumes exactly.
func (a *batchFrames) NextFrame(ctx context.Context) (*frameBuf, error) {
	chunk := a.held
	if len(a.rest) > 0 {
		chunk.Missed = 0 // lapped records are reported once, with the first chunk
	} else {
		b, err := a.stream.Next(ctx)
		if err != nil {
			return nil, err
		}
		a.held, a.rest, chunk = b, b.Records, b
	}
	chunk.Records = a.rest
	if len(a.rest) > maxRecordsPerFrame {
		chunk.Records = a.rest[:maxRecordsPerFrame]
	}
	a.rest = a.rest[len(chunk.Records):]
	a.cursor = advanceCursor(a.cursor, chunk)
	framed := appendBatch(append(a.fb.data[:0], 0, 0, 0, 0), chunk, a.cursor)
	if len(a.rest) == 0 && a.rec != nil {
		a.rec.Recycle(a.held)
	}
	return a.fb.seal(framed)
}

// rollupFrames encodes a RollupStream for one connection: each delivery is
// one rollup frame (the ring bounds batch sizes, so no splitting is needed).
type rollupFrames struct {
	stream RollupStream
	fb     *frameBuf
}

func (a *rollupFrames) NextFrame(ctx context.Context) (*frameBuf, error) {
	rb, err := a.stream.Next(ctx)
	if err != nil {
		return nil, err
	}
	return a.fb.seal(appendRollups(append(a.fb.data[:0], 0, 0, 0, 0), rb))
}
