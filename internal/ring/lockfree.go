package ring

import (
	"math"
	"sync/atomic"
)

// SP is a lock-free single-producer, multi-reader heartbeat ring. It is the
// storage behind the sharded beat hot path: exactly one goroutine calls Push,
// while any number of goroutines read concurrently through Last, Read, or a
// Cursor. No operation blocks, and Push performs a single atomic store per
// beat in the steady state.
//
// The key observation is that a heartbeat record is almost always just "one
// more beat at the current timestamp": timestamps repeat (clocks are coarser
// than beat rates) and most beats carry tag 0. SP therefore run-length
// encodes the stream instead of storing one slot per record:
//
//   - total is the published beat count; record seq exists iff seq <= total.
//   - A time index of (start, time) entries marks each point where the
//     timestamp changed; record seq's timestamp is the time of the last
//     entry with start <= seq. A beat whose timestamp equals the previous
//     beat's writes no entry at all.
//   - Tagged beats write (seq, tag) into a tag slot addressed by seq; plain
//     beats write nothing. A slot whose mark doesn't equal the queried seq
//     means "tag 0".
//
// Readers validate against overwrite races seqlock-style: an index entry or
// tag slot is trusted only if, after reading it, the published counters show
// the writer cannot yet have wrapped around onto it. Torn reads are thereby
// detected and the affected records skipped, never returned corrupt —
// mirroring the paper's requirement that external observers read heartbeat
// buffers without coordinating with the application.
//
// The capacity bounds how far back reads reconstruct records (and how many
// distinct-timestamp runs and tagged beats are retained). The zero value is
// not usable; construct with NewSP.
type SP struct {
	// The counters and mirrors below are written on every push. The two
	// pads keep the cache lines they sit on free of any neighbouring
	// object: two producers' rings allocated back to back would otherwise
	// share a line, and each push of one would invalidate it for the other.
	_ [cacheLine]byte

	// Published counters (written by the producer, polled by readers).
	total   atomic.Uint64 // beats ever pushed
	entries atomic.Uint64 // time-index entries ever written

	// Producer-private mirrors; never read by other goroutines.
	seq      uint64
	idxSeq   uint64
	lastTime int64

	idx     []idxEntry
	tagMark []atomic.Uint64
	tagVal  []atomic.Int64

	_ [cacheLine]byte
}

// cacheLine is the cache line size SP pads its producer-written fields by.
const cacheLine = 64

// idxEntry marks that records from start onward carry time, until the next
// entry's start. ver holds the entry number while the pair is stable and 0
// while it is being (re)written, seqlock-style, so readers detect overwrite
// races exactly.
type idxEntry struct {
	ver   atomic.Uint64
	start atomic.Uint64
	time  atomic.Int64
}

// Entry is one reconstructed record of an SP ring.
type Entry struct {
	// Seq is the 1-based position of the record in the ring's history.
	Seq uint64
	// Time is the record's timestamp in Unix nanoseconds.
	Time int64
	// Tag is the caller-supplied tag (0 for plain beats).
	Tag int64
}

// NewSP returns an SP ring that retains the last capacity records.
// It panics if capacity <= 0.
func NewSP(capacity int) *SP {
	if capacity <= 0 {
		panic("ring: capacity must be positive")
	}
	return &SP{
		// math.MinInt64 forces the first push to open a time run.
		lastTime: math.MinInt64,
		idx:      make([]idxEntry, capacity),
		tagMark:  make([]atomic.Uint64, capacity),
		tagVal:   make([]atomic.Int64, capacity),
	}
}

// Cap returns how many records the ring retains for readers.
func (r *SP) Cap() int { return len(r.idx) }

// Total returns the number of records ever pushed.
//
//hbvet:hotpath
func (r *SP) Total() uint64 { return r.total.Load() }

// Entries returns the number of time-index entries ever written. The
// difference between two observations bounds how many distinct timestamps
// the producer has emitted in between.
//
//hbvet:hotpath
func (r *SP) Entries() uint64 { return r.entries.Load() }

// Push appends a record with the given timestamp and tag and returns its
// sequence number, plus whether this push opened a new time run (callers use
// this to amortize index-pressure checks). Push must only ever be called
// from one goroutine. It never allocates and, while the timestamp stays the
// same and tag == 0, performs exactly one atomic store.
//
//hbvet:hotpath
func (r *SP) Push(timeNanos, tag int64) (seq uint64, newRun bool) {
	seq = r.seq + 1
	r.seq = seq
	if timeNanos != r.lastTime {
		r.lastTime = timeNanos
		k := r.idxSeq + 1
		r.idxSeq = k
		e := &r.idx[(k-1)%uint64(len(r.idx))]
		// Seqlock write: invalidate, fill, publish. Readers of the
		// lapped entry see ver change and reject the pair.
		e.ver.Store(0)
		e.start.Store(seq)
		e.time.Store(timeNanos)
		e.ver.Store(k)
		r.entries.Store(k)
		newRun = true
	}
	if tag != 0 {
		i := (seq - 1) % uint64(len(r.tagMark))
		// Mark before value: a reader that sees mark == seq, reads the
		// value, and still sees mark == seq cannot have read a value
		// from a different lap.
		r.tagMark[i].Store(seq)
		r.tagVal[i].Store(tag)
	}
	r.total.Store(seq)
	return seq, newRun
}

// loadEntry reads time-index entry k (1-based). ok is false when the entry
// has been — or is concurrently being — overwritten by a later lap.
func (r *SP) loadEntry(k uint64) (start uint64, tm int64, ok bool) {
	e := &r.idx[(k-1)%uint64(len(r.idx))]
	if e.ver.Load() != k {
		return 0, 0, false
	}
	start = e.start.Load()
	tm = e.time.Load()
	if e.ver.Load() != k {
		return 0, 0, false
	}
	return start, tm, true
}

// tag returns the tag of record seq. Safe only for seq within the retained
// window; outside it the tag degrades to 0 (never to a wrong value).
func (r *SP) tag(seq uint64) int64 {
	i := (seq - 1) % uint64(len(r.tagMark))
	if r.tagMark[i].Load() != seq {
		return 0
	}
	v := r.tagVal[i].Load()
	if r.tagMark[i].Load() != seq {
		return 0
	}
	return v
}

// Read reconstructs the record with the given sequence number. ok is false
// when seq has not been pushed yet or is too old to reconstruct.
//
//hbvet:hotpath
func (r *SP) Read(seq uint64) (Entry, bool) {
	if seq == 0 || seq > r.total.Load() {
		return Entry{}, false
	}
	tm, ok := r.seek(seq)
	if !ok {
		return Entry{}, false
	}
	return Entry{Seq: seq, Time: tm, Tag: r.tag(seq)}, true
}

// seek returns the timestamp of record seq by locating the greatest
// time-index entry with start <= seq. ok is false when no retained entry
// covers seq.
func (r *SP) seek(seq uint64) (tm int64, ok bool) {
	hi := r.entries.Load()
	if hi == 0 {
		return 0, false
	}
	lo := uint64(1)
	if hi > uint64(len(r.idx)) {
		lo = hi - uint64(len(r.idx)) + 1
	}
	// Binary search, biased high. Overwritten probes read larger starts
	// and push the search left; the final validation rejects any stale
	// pick.
	for lo < hi {
		mid := lo + (hi-lo+1)/2
		if r.idx[(mid-1)%uint64(len(r.idx))].start.Load() <= seq {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	start, tm, ok := r.loadEntry(lo)
	if !ok || start > seq {
		return 0, false
	}
	return tm, true
}

// Last reconstructs up to n of the most recent records, oldest to newest.
// Records whose timestamp run has been overwritten are skipped. A
// non-positive n yields nil; n is clipped to the ring capacity.
func (r *SP) Last(n int) []Entry {
	if n <= 0 {
		return nil
	}
	total := r.total.Load()
	if total == 0 {
		return nil
	}
	if n > len(r.idx) {
		n = len(r.idx)
	}
	if uint64(n) > total {
		n = int(total)
	}
	first := total - uint64(n) + 1

	// Collect the time runs covering [first, total], walking the index
	// backward so the scan is bounded by the requested window (at most
	// n+1 entries cover n records) rather than the ring capacity. A
	// lapped entry ends the walk: everything older is gone too.
	hi := r.entries.Load()
	lo := uint64(1)
	if hi > uint64(len(r.idx)) {
		lo = hi - uint64(len(r.idx)) + 1
	}
	type run struct {
		start uint64
		time  int64
	}
	maxRuns := uint64(n) + 1
	if span := hi - lo + 1; span < maxRuns {
		maxRuns = span
	}
	runs := make([]run, 0, maxRuns)
	for k := hi; k >= lo; k-- {
		start, tm, ok := r.loadEntry(k)
		if !ok {
			break
		}
		runs = append(runs, run{start, tm})
		if start <= first {
			break
		}
	}
	if len(runs) == 0 {
		return nil
	}
	// Reverse into oldest-first order for the tandem walk below.
	for i, j := 0, len(runs)-1; i < j; i, j = i+1, j-1 {
		runs[i], runs[j] = runs[j], runs[i]
	}

	out := make([]Entry, 0, n)
	ri := 0
	for seq := first; seq <= total; seq++ {
		for ri+1 < len(runs) && runs[ri+1].start <= seq {
			ri++
		}
		if runs[ri].start > seq {
			continue // older than the oldest retained run
		}
		out = append(out, Entry{Seq: seq, Time: runs[ri].time, Tag: r.tag(seq)})
	}
	return out
}

// Cursor consumes an SP ring sequentially: the aggregator side of the
// sharded heartbeat path. A Cursor must be guarded by the caller (a single
// consumer at a time); the producer may keep pushing concurrently. Callers
// must consume fast enough that unconsumed records are never overwritten —
// the heartbeat aggregator enforces this by flushing producers whose backlog
// reaches half the ring capacity — so cursor reads need no validation.
type Cursor struct {
	r    *SP
	next uint64 // next seq to consume
	k    uint64 // time-index entry covering next (0 = none yet)
	tm   int64  // time of entry k
}

// NewCursor returns a cursor positioned before the first record.
func (r *SP) NewCursor() Cursor { return Cursor{r: r} }

// Consumed returns how many records have been consumed.
func (c *Cursor) Consumed() uint64 { return c.next }

// EntriesConsumed returns how many time-index entries have been fully
// passed; entry k itself may still cover future records.
func (c *Cursor) EntriesConsumed() uint64 {
	if c.k == 0 {
		return 0
	}
	return c.k - 1
}

// advance moves the covering entry forward until it covers seq.
func (c *Cursor) advance(seq uint64) {
	published := c.r.entries.Load()
	for c.k < published {
		start, tm, _ := c.r.loadEntry(c.k + 1)
		if start > seq {
			break
		}
		c.k++
		c.tm = tm
	}
}

// PeekTime returns the timestamp of the next record. It must only be called
// when at least one record is pending.
//
//hbvet:hotpath
func (c *Cursor) PeekTime() int64 {
	c.advance(c.next + 1)
	return c.tm
}

// RunLen reports how many pending records, up to limit, share the next
// record's timestamp run.
//
//hbvet:hotpath
func (c *Cursor) RunLen(limit uint64) uint64 {
	c.advance(c.next + 1)
	end := limit
	published := c.r.entries.Load()
	if c.k < published {
		if start, _, ok := c.r.loadEntry(c.k + 1); ok && start-1 < end {
			end = start - 1
		}
	}
	return end - c.next
}

// Skip consumes n records without reconstructing them.
//
//hbvet:hotpath
func (c *Cursor) Skip(n uint64) {
	c.next += n
	c.advance(c.next)
}

// Next reconstructs and consumes the next record. ok is false when no
// record at or below limit is pending.
//
//hbvet:hotpath
func (c *Cursor) Next(limit uint64) (Entry, bool) {
	if c.next >= limit {
		return Entry{}, false
	}
	seq := c.next + 1
	c.advance(seq)
	e := Entry{Seq: seq, Time: c.tm, Tag: c.r.tag(seq)}
	c.next = seq
	return e, true
}
