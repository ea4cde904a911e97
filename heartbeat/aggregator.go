package heartbeat

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ring"
)

// This file implements the batched aggregator behind the sharded beat hot
// path. Each registered Thread owns a lock-free single-producer shard
// (ring.SP) that GlobalBeat writes into without taking any lock; the
// aggregator merges shard records into the global history — assigning the
// dense global sequence numbers and delivering sink batches — on read, on
// the configured flush interval, or when a producer's backlog reaches half
// its shard capacity. The merge is a k-way merge by timestamp with ties
// broken by shard registration order, so a single-threaded beat schedule
// aggregates into exactly the history a fully serialized store would have
// produced.

// gshard is one producer's shard of the global heartbeat history. Exactly
// one goroutine (the owning Thread's) pushes into it; the aggregator is its
// only consumer.
type gshard struct {
	ring     *ring.SP
	agg      *aggregator
	producer int32
	// soft is the backlog level (in records or in time-index entries) at
	// which the producer itself triggers a flush: half the shard
	// capacity, so unconsumed records are never overwritten and no beat
	// is ever lost.
	soft uint64
	// consumed and entriesConsumed republish the aggregator's cursor
	// position — only once the merged records are visible in the store —
	// so the producer can check backlog pressure with a single atomic
	// load per beat, and hasPending stays true for the whole merge.
	consumed        atomic.Uint64
	entriesConsumed atomic.Uint64
	// countConsumed is the same position republished EARLY, before the
	// store appends land. Count's lock-free estimate subtracts it so a
	// record mid-merge is counted zero times, never twice (an overcount
	// would latch into Count's monotonic clamp permanently).
	countConsumed atomic.Uint64
	cur           ring.Cursor // guarded by agg.mu
}

// beat is the global-beat hot path: a lock-free shard push plus an amortized
// backlog check. It allocates nothing; in the steady state (repeated
// timestamp, tag 0, backlog below the soft limit) it performs a single
// atomic store.
//
//hbvet:hotpath
func (g *gshard) beat(timeNanos, tag int64) {
	seq, newRun := g.ring.Push(timeNanos, tag)
	if seq-g.consumed.Load() >= g.soft {
		g.agg.flush() //hbvet:allow hotpath -- amortized backlog spill: runs once per soft-limit crossing, not per beat
	} else if newRun && g.ring.Entries()-g.entriesConsumed.Load() >= g.soft {
		g.agg.flush() //hbvet:allow hotpath -- amortized time-index spill, same soft-limit cadence
	}
}

// mergeHead is one shard's position in the k-way merge.
type mergeHead struct {
	sh    *gshard
	limit uint64 // shard total snapshot; records beyond it merge next time
	t     int64  // timestamp of the shard's next pending record
}

// aggregator owns the merged global history and the sink once per-thread
// shards exist. All merged-store appends happen under mu; the store itself
// additionally tolerates the lock-free direct-beat path that runs before the
// first Thread is registered.
type aggregator struct {
	mu      sync.Mutex
	st      store
	sink    Sink
	sinkErr *atomic.Pointer[error]
	subs    *subscribers
	nshards atomic.Int32
	shards  []*gshard // guarded by mu; registration order
	// shardsPtr republishes the shards slice copy-on-write so lock-free
	// fast paths (direct beats, Count) can scan backlog atomics without
	// taking mu.
	shardsPtr atomic.Pointer[[]*gshard]
	heads     []mergeHead // merge scratch, reused across flushes
	batch     []Record    // sink-batch scratch, reused across flushes
	tags      [256]int64  // merge scratch: the tags of the run being appended
}

// register creates a shard for a new producer.
func (a *aggregator) register(producer int32, capacity int) *gshard {
	g := &gshard{ring: ring.NewSP(capacity), agg: a, producer: producer, soft: uint64(capacity) / 2}
	if g.soft == 0 {
		g.soft = 1
	}
	g.cur = g.ring.NewCursor()
	a.mu.Lock()
	a.shards = append(a.shards, g)
	snap := make([]*gshard, len(a.shards))
	copy(snap, a.shards)
	a.shardsPtr.Store(&snap)
	a.nshards.Store(int32(len(a.shards)))
	a.mu.Unlock()
	return g
}

// active reports whether any shards exist (and the aggregated path is in
// effect for global state).
func (a *aggregator) active() bool { return a.nshards.Load() > 0 }

// snapshot returns the lock-free view of the registered shards.
func (a *aggregator) snapshot() []*gshard {
	if p := a.shardsPtr.Load(); p != nil {
		return *p
	}
	return nil
}

// hasPending reports, lock-free, whether any shard has unmerged records.
// It reads the late-published consumed counters, which lag until merged
// records are visible in the store, so this answers true for the whole
// duration of a merge — callers fall to the locked path and wait, keeping
// direct beats sequenced after every earlier shard record. The scan is
// O(registered threads) of atomic loads; an aggregate counter would move
// that coordination onto the sharded beat hot path, which is the wrong
// trade.
func (a *aggregator) hasPending() bool {
	for _, sh := range a.snapshot() {
		if sh.ring.Total() != sh.consumed.Load() {
			return true
		}
	}
	return false
}

// pendingEstimate sums shard backlogs lock-free against the early-published
// countConsumed. Reading it before the ring total keeps each term
// non-negative; the sum can transiently undercount records mid-merge, which
// Count compensates for with a monotonic clamp.
func (a *aggregator) pendingEstimate() uint64 {
	var n uint64
	for _, sh := range a.snapshot() {
		c := sh.countConsumed.Load()
		if t := sh.ring.Total(); t > c {
			n += t - c
		}
	}
	return n
}

// flush merges all pending shard records now.
func (a *aggregator) flush() {
	a.mu.Lock()
	a.mergeLocked()
	a.mu.Unlock()
}

// direct appends a record beaten on the global handle itself (producer 0).
// Pending shard records are merged first so global sequence numbers remain
// ordered, and the record reaches the sink before direct returns (the
// synchronous contract of Heartbeat.Beat).
func (a *aggregator) direct(timeNanos, tag int64) {
	a.mu.Lock()
	a.mergeLocked()
	seq := a.st.append(timeNanos, tag, 0)
	if a.sink != nil {
		a.deliver(Record{Seq: seq, Time: time.Unix(0, timeNanos), Tag: tag, Producer: 0})
	}
	a.mu.Unlock()
	a.subs.wake()
}

// pendingLocked counts shard records not yet merged.
func (a *aggregator) pendingLocked() uint64 {
	var n uint64
	for _, sh := range a.shards {
		n += sh.ring.Total() - sh.cur.Consumed()
	}
	return n
}

// minHead returns the index of the head with the smallest timestamp;
// ties resolve to the earliest-registered shard, keeping the merge
// deterministic.
func minHead(heads []mergeHead) int {
	mi := 0
	for i := 1; i < len(heads); i++ {
		if heads[i].t < heads[mi].t {
			mi = i
		}
	}
	return mi
}

// mergeLocked drains every shard up to its current total, materializing
// records into the merged store in timestamp order. When no sink is attached
// and the pending backlog exceeds the history capacity, the surplus oldest
// records — which a bounded history would discard on arrival anyway — are
// consumed run-by-run without materialization, with their sequence numbers
// accounted in bulk.
func (a *aggregator) mergeLocked() {
	heads := a.heads[:0]
	var pending uint64
	for _, sh := range a.shards {
		limit := sh.ring.Total()
		if limit > sh.cur.Consumed() {
			pending += limit - sh.cur.Consumed()
			heads = append(heads, mergeHead{sh: sh, limit: limit, t: sh.cur.PeekTime()})
		}
	}
	if len(heads) == 0 {
		a.heads = heads
		return
	}
	if capn := uint64(a.st.capacity()); a.sink == nil && pending > capn {
		toSkip := pending - capn
		for toSkip > 0 {
			mi := minHead(heads)
			h := &heads[mi]
			n := h.sh.cur.RunLen(h.limit)
			if n > toSkip {
				n = toSkip
			}
			h.sh.cur.Skip(n)
			h.sh.countConsumed.Store(h.sh.cur.Consumed())
			toSkip -= n
			if h.sh.cur.Consumed() >= h.limit {
				heads = append(heads[:mi], heads[mi+1:]...)
			} else {
				h.t = h.sh.cur.PeekTime()
			}
		}
		// The skip advances the store's sequence counter past every
		// retained record before the replacement tail is appended, so
		// a concurrent lock-free reader (a History whose TryLock lost
		// the race) can transiently observe a short or empty history
		// until the appends below land — the documented best-effort
		// degraded read, bounded by the merge duration.
		a.st.skip(pending - capn)
	}
	for len(heads) > 0 {
		mi := minHead(heads)
		h := &heads[mi]
		// Consume the head's whole same-timestamp run at once: every
		// record in it shares the minimal timestamp, so record-by-record
		// selection would keep picking this shard anyway (ties break to
		// the earliest-registered shard). This keeps the merge O(runs)
		// rather than O(records) in shard-head scans, and the run goes
		// into the store under one claim of sequence numbers (a run
		// longer than the tag scratch under several: this head stays
		// the minimum, so the next round continues it).
		run := min(h.sh.cur.RunLen(h.limit), uint64(len(a.tags)))
		h.sh.countConsumed.Store(h.sh.cur.Consumed() + run)
		tags := a.tags[:run]
		for i := range tags {
			e, _ := h.sh.cur.Next(h.limit)
			tags[i] = e.Tag
		}
		first := a.st.appendRun(h.t, h.sh.producer, tags)
		if a.sink != nil {
			tm := time.Unix(0, h.t)
			for i, tag := range tags {
				a.batch = append(a.batch, Record{Seq: first + uint64(i), Time: tm, Tag: tag, Producer: h.sh.producer})
			}
		}
		if h.sh.cur.Consumed() >= h.limit {
			heads = append(heads[:mi], heads[mi+1:]...)
		} else {
			h.t = h.sh.cur.PeekTime()
		}
	}
	a.heads = heads[:0]
	for _, sh := range a.shards {
		sh.consumed.Store(sh.cur.Consumed())
		sh.entriesConsumed.Store(sh.cur.EntriesConsumed())
		sh.countConsumed.Store(sh.cur.Consumed())
	}
	if len(a.batch) > 0 {
		a.deliverBatch(a.batch)
		a.batch = a.batch[:0]
	}
	// Records merged above are visible in the store (and past the sink),
	// so blocked subscribers can consume them now. The send is
	// non-blocking, so waking under mu is safe; a subscriber that runs
	// before mu is released simply reads the store lock-free.
	a.subs.wake()
}

func (a *aggregator) deliver(r Record) {
	if err := a.sink.WriteRecord(r); err != nil {
		a.sinkErr.Store(&err)
	}
}

func (a *aggregator) deliverBatch(recs []Record) {
	if bs, ok := a.sink.(BatchSink); ok {
		if err := bs.WriteRecords(recs); err != nil {
			a.sinkErr.Store(&err)
		}
		return
	}
	for _, r := range recs {
		a.deliver(r)
	}
}
