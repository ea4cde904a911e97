package hbnet

import (
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"repro/observer"
)

// This file is the encode-once fan-out machinery: a frameBuf is one
// encoded, length-prefixed batch frame shared by every subscriber at the
// same cursor, so the replay ring encodes it once (frameSince) however
// many connections the server writes it to.

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
// every cycle, and under load pooled catch-up frames (megabytes each)
// would be reallocated and zeroed over and over. A frame released into a
// full list is left to the GC.
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

// frameStream is what the server's push loop drives: NextFrame returns the
// next delivery as an encoded, ref-counted frame (shared with every other
// subscriber at the same cursor, for the relay's ring) whose reference the
// caller releases after writing, under Next's blocking and error contract.
type frameStream interface {
	NextFrame(ctx context.Context) (*frameBuf, error)
}

// open opens one subscriber's stream at the hello's cursor, as a
// frameStream plus the stream itself (closed with the connection when it
// is an io.Closer). A plain observer.Stream or a RollupStream gets a
// per-connection encode adapter.
func (e feedEntry) open(ctx context.Context, sc *serverCore) (frameStream, any, error) {
	if e.rollup != nil {
		rs, err := e.rollup(ctx, sc.cursor)
		if err != nil {
			return nil, nil, err
		}
		return &rollupFrames{stream: rs, fb: newPrivateFrameBuf()}, rs, nil
	}
	st, err := e.raw(ctx, sc.cursor)
	if err != nil {
		return nil, nil, err
	}
	if fs, ok := st.(frameStream); ok {
		return fs, st, nil
	}
	bf := &batchFrames{stream: st, core: sc, fb: newPrivateFrameBuf()}
	bf.rec, _ = st.(BatchRecycler)
	return bf, st, nil
}

// newPrivateFrameBuf returns the one buffer an encode adapter reuses for
// every frame of its connection; it keeps a reference for life, so the
// buffer never enters the shared pool.
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
		// Only a foreign stream's batch (or a rollup emission) can be this
		// large: end the subscription with a visible, permanent error
		// rather than a silent livelock of redials.
		return nil, errFrameTooLarge
	}
	binary.BigEndian.PutUint32(framed, uint32(len(framed)-4))
	fb.retain()
	return fb, nil
}

// batchFrames encodes a plain observer.Stream for one connection, one
// frame per batch (serverCore.batchFrame).
type batchFrames struct {
	stream observer.Stream
	rec    BatchRecycler // gets each batch back once it is framed
	core   *serverCore
	fb     *frameBuf
}

func (a *batchFrames) NextFrame(ctx context.Context) (*frameBuf, error) {
	b, err := a.stream.Next(ctx)
	if err != nil {
		return nil, err
	}
	framed, err := a.core.batchFrame(append(a.fb.data[:0], 0, 0, 0, 0), b)
	if a.rec != nil {
		a.rec.Recycle(b)
	}
	if err != nil {
		return nil, err
	}
	return a.fb.seal(framed)
}

// rollupFrames encodes a RollupStream for one connection, one frame per
// delivery (the ring bounds batch sizes).
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
