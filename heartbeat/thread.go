package heartbeat

import (
	"sync/atomic"
	"time"

	"repro/internal/ring"
)

// Thread is a per-thread heartbeat handle — the paper's "local" heartbeats.
// Threads working on independent objects beat on their own handles so
// observers can reason about them separately; threads cooperating on one
// object report shared progress through GlobalBeat.
//
// A Thread owns a lock-free single-producer global shard
// (GlobalBeat/GlobalBeatTag) that the aggregator merges into the application
// history, and — from its first Beat/BeatTag on — a second such ring for its
// private local history. A thread that only beats globally never allocates
// the local one, and its Count, History and Rate read as empty. Both beat
// paths are mutex-free and, after that first local beat, allocation-free: in
// the steady state a beat is a single atomic store. That speed rests on a
// single-producer contract: all beat calls on one Thread must come from one
// goroutine (register one handle per worker — Thread handles are cheap).
// Concurrent beats on a shared handle are a data race: beats can be lost and
// `go test -race` will flag the caller. This is stricter than the seed's
// mutex-guarded Thread, which tolerated shared handles; heartbeat/compat
// serializes its local beats for C-parity callers that relied on that. All
// read methods remain safe for any number of concurrent observers.
//
// # What a Thread's timestamp means
//
// On the default clock a Thread does not read the wall clock on every beat:
// a clock read costs more than the rest of the beat put together, and a stamp
// that changes on every beat defeats the ring's run-length encoding. A Thread
// instead reuses its last reading for up to every − 1 further beats, where
// every is private to the producer and is retuned at each reading from how
// long the every beats since the previous reading took: it doubles when they
// took at most half a reuse span (reuseSpan, 100 µs), halves when they took
// more than that, and drops to 1 at once when they took more than a whole
// span. So:
//
//   - A thread whose beats are at least one reuse span apart reads the clock
//     on every beat (every rests at 1) and stamps exactly as if nothing were
//     amortised.
//   - A steady fast beater's stamp is at most one reuse span older than the
//     wall clock at the beat.
//   - every never exceeds min(64, Window()/2), so any Window() consecutive
//     beats of one thread carry at least two distinct stamps and a windowed
//     Rate stays computable at any beat rate. The window is the
//     amortisation's only dial: a window of 20 reads the clock every 10th
//     beat at most, a window of 128 or more every 64th; a window below 4
//     reads it on every beat. It is also the dial of a hot thread's rate
//     accuracy: a Rate counts window − 1 beats over a span that ends at the
//     last reading, up to every − 1 beats before the last record, so at the
//     cap it can read up to window/(window − every) ≈ 2× high; a thread
//     beating faster than 200 000 times a second that wants its rate within
//     x % asks for a window of 6400/x beats or more.
//   - The one case bounded in beats rather than in time: a thread that
//     bursts, then stalls or slows mid-run, stamps the beats left of that
//     run — at most every − 1 of them — with the reading taken before the
//     stall. The next reading sees the gap and puts every back to 1.
//
// Exact stamps are one option away: a clock passed through WithClock —
// including WithClock(SystemClock()) — is read on every beat, and
// Heartbeat.Beat/BeatTag always is.
type Thread struct {
	h        *Heartbeat
	id       int32
	name     string
	nowNanos func() int64
	// Producer-private stamping state; only the owning goroutine beats, per
	// the single-producer contract, so these are plain fields.
	lastNanos int64 // last stamp handed out: the non-decreasing clamp, and the reading being reused
	readAt    int64 // the clock's own value at the last reading (lastNanos may sit above it after a backward step)
	reuse     int   // beats that may still reuse lastNanos before the next reading
	every     int   // beats per reading, 1 … h.maxEvery
	// local is nil until the first local beat; only the producer stores it
	// (single-producer contract), readers load it.
	local atomic.Pointer[ring.SP]
	g     *gshard
}

const (
	// reuseSpan bounds how long a steady beater reuses one clock reading.
	reuseSpan = int64(100 * time.Microsecond)
	// maxReuse caps the beats per reading whatever the window.
	maxReuse = 64
)

func newThread(h *Heartbeat, id int32, name string) *Thread {
	return &Thread{
		h:        h,
		id:       id,
		name:     name,
		nowNanos: h.nowNanos,
		every:    1,
		g:        h.agg.register(id, h.shardCap),
	}
}

// now is the hot-path timestamp: the last reading while it may still be
// reused, a fresh one otherwise.
//
//hbvet:hotpath
func (t *Thread) now() int64 {
	if t.reuse > 0 {
		t.reuse--
		return t.lastNanos
	}
	return t.readClock()
}

// readClock reads the clock, retunes how many beats the reading will serve
// (see Thread), and clamps it so one thread's beat times never run backwards
// across a wall-clock step (negative spans would make windowed rates
// unreportable): after a backward step the stamps plateau until the wall
// catches up, across however many readings that takes.
//
//hbvet:hotpath
func (t *Thread) readClock() int64 {
	n := t.nowNanos() //hbvet:allow hotpath -- the one indirect call on the beat path: an injected clock is read on every beat by contract, the default clock once per `every` beats
	switch took := n - t.readAt; {
	case took < 0 || took > reuseSpan:
		t.every = 1
	case took <= reuseSpan/2:
		t.every = min(2*t.every, t.h.maxEvery) // stays 1 on an injected clock
	default:
		t.every = max(t.every/2, 1)
	}
	t.readAt = n
	t.reuse = t.every - 1
	if n < t.lastNanos {
		return t.lastNanos
	}
	t.lastNanos = n
	return n
}

// ID returns the registration identifier stamped into this thread's records
// (and into global records emitted via GlobalBeat).
//
//hbvet:api -- user need: match Record.Producer to the thread that beat
func (t *Thread) ID() int32 { return t.id }

// Name returns the label supplied at registration.
//
//hbvet:api -- user need: label a thread's local rate in an observer's report
func (t *Thread) Name() string { return t.name }

// Beat registers a local heartbeat with tag 0 (HB_heartbeat, local=true).
//
//hbvet:hotpath
func (t *Thread) Beat() { t.localRing().Push(t.now(), 0) }

// BeatTag registers a local heartbeat carrying a caller-defined tag.
//
//hbvet:hotpath
func (t *Thread) BeatTag(tag int64) { t.localRing().Push(t.now(), tag) }

// localRing returns the local history ring, allocating it on the first
// local beat. The producer is its only writer, so a plain Store publishes
// it; readers that load nil report an empty history.
//
//hbvet:hotpath
func (t *Thread) localRing() *ring.SP {
	if r := t.local.Load(); r != nil {
		return r
	}
	r := ring.NewSP(t.h.threadCap) //hbvet:allow hotpath -- once per Thread: the first local beat allocates the local ring
	t.local.Store(r)
	return r
}

// GlobalBeat registers a heartbeat on the application's global history,
// attributed to this thread. The write lands in this thread's lock-free
// shard; the aggregator assigns its global sequence number when the shard
// is merged (on read, on the flush interval, or on backlog pressure).
//
//hbvet:hotpath
func (t *Thread) GlobalBeat() { t.g.beat(t.now(), 0) }

// GlobalBeatTag is GlobalBeat with a tag.
//
//hbvet:hotpath
func (t *Thread) GlobalBeatTag(tag int64) { t.g.beat(t.now(), tag) }

// Count returns the number of local heartbeats ever registered.
func (t *Thread) Count() uint64 {
	if r := t.local.Load(); r != nil {
		return r.Total()
	}
	return 0
}

// Rate returns the local heart rate over the last window beats; window == 0
// uses the application's default window. Windows beyond the retained
// history are clipped.
func (t *Thread) Rate(window int) (perSec float64, ok bool) {
	if window <= 0 {
		window = t.h.window
	}
	r, ok := rateOf(t.History(window))
	return r.PerSec, ok
}

// History returns up to n of the most recent local records, oldest first.
func (t *Thread) History(n int) []Record {
	r := t.local.Load()
	if r == nil {
		return nil
	}
	ents := r.Last(n)
	if len(ents) == 0 {
		return nil
	}
	out := make([]Record, len(ents))
	for i, e := range ents {
		out[i] = Record{Seq: e.Seq, Time: time.Unix(0, e.Time), Tag: e.Tag, Producer: t.id}
	}
	return out
}
