package hbnet //hbvet:pure

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/heartbeat"
	"repro/internal/cursor"
	"repro/observer"
)

// This file is the relay's core: all relay state and every decision about
// it — registration, re-sequencing, the shed floor, final rollup windows,
// what a subscriber reads at its cursor. It has no goroutines, channels,
// locks or clock: each input is one plain method, taking time as an
// argument. The shell (Relay, relay.go) calls it under one mutex.

// maxRollupBatchBytes bounds the estimated encoded size of one rollup
// delivery (whole emissions; at least one emission is always delivered),
// keeping every frame far inside maxFramePayload even when app names run
// to their maxFeedName limit. A single emission can only exceed it with
// thousands of maximally-named upstreams on one relay — the server's
// frame guard still catches that pathology explicitly.
const maxRollupBatchBytes = 4 << 20

// rollupWireCost over-estimates one rollup's encoded size: its app name
// plus a generous fixed overhead for every other field.
func rollupWireCost(r observer.Rollup) int { return len(r.App) + 64 }

// rollupRetain is how many rollup emissions a relay retains: how many
// downsample windows a reconnecting rollup subscriber can replay.
const rollupRetain = 256

// relayCore is one relay's state. Nothing in it is safe for concurrent
// use; the shell serializes every call.
type relayCore struct {
	merged    replayRing
	rollups   rollupRing // one emission per window: a rollup per raw upstream
	compacted rollupRing // one emission per window: a rollup per application, from rollup upstreams
	ds        *observer.Downsampler
	compactor *observer.RollupCompactor
	raw       upstreamSet // AddUpstream registrations
	rollup    upstreamSet // AddRollupUpstream registrations: their own namespace
	nextID    int32       // next raw upstream id: unique per registration life, never reused
	rupMissed uint64      // child rollup emissions lapped before absorption
	winFrom   time.Time   // current rollup window's start
	closed    bool
}

// newRelayCore makes a relay's state: see WithMergedRetain and WithShedLag
// for retain and shedLag.
func newRelayCore(retain, shedLag int, now time.Time) *relayCore {
	if retain <= 0 {
		retain = 1 << 16
	}
	return &relayCore{
		merged:    replayRing{recs: make([]replayEntry, retain), lagBound: shedLag},
		rollups:   rollupRing{emits: make([][]observer.Rollup, rollupRetain)},
		compacted: rollupRing{emits: make([][]observer.Rollup, rollupRetain)},
		ds:        observer.NewDownsampler(),
		compactor: observer.NewRollupCompactor(),
		raw:       upstreamSet{kind: "upstream", byName: make(map[string]*relayUpstream)},
		rollup:    upstreamSet{kind: "rollup upstream", byName: make(map[string]*relayUpstream)},
		winFrom:   now,
	}
}

// upstreamSet is one namespace of registrations in registration order.
type upstreamSet struct {
	kind   string // "upstream" or "rollup upstream", for error text
	byName map[string]*relayUpstream
	order  []string
}

func (s *upstreamSet) add(up *relayUpstream) {
	up.set = s
	s.byName[up.name] = up
	s.order = append(s.order, up.name)
}

func (s *upstreamSet) remove(name string) {
	delete(s.byName, name)
	s.order = slices.DeleteFunc(s.order, func(n string) bool { return n == name })
}

// register is the one registration decision: validate up, claim its name
// in set and, for a raw upstream, give it a fresh id and a rollup account.
func (c *relayCore) register(set *upstreamSet, up *relayUpstream) error {
	if len(up.name) > maxFeedName {
		return fmt.Errorf("hbnet: %s name exceeds %d bytes", set.kind, maxFeedName)
	}
	if c.closed {
		return fmt.Errorf("hbnet: relay closed")
	}
	if _, dup := set.byName[up.name]; dup {
		return fmt.Errorf("hbnet: duplicate %s %q", set.kind, up.name)
	}
	if up.stream != nil {
		// Ids are allocated, never recycled: a name removed and re-added
		// gets a fresh id, so records from the two registration lives stay
		// distinguishable in the merged seq space (len(order) would collide
		// after any removal).
		up.id = c.nextID
		c.nextID++
		c.ds.Track(up.name) // silent upstreams still roll up, as silence
	}
	set.add(up)
	return nil
}

// unregister begins a removal: it marks the named registration as owned by
// that removal, so neither its pump's end of stream nor a second removal
// retires it. The removal retires it once its pump has exited.
func (c *relayCore) unregister(set *upstreamSet, name string) (*relayUpstream, error) {
	if c.closed {
		return nil, fmt.Errorf("hbnet: relay closed")
	}
	up, ok := set.byName[name]
	if !ok {
		return nil, fmt.Errorf("hbnet: unknown %s %q", set.kind, name)
	}
	if up.removing {
		return nil, fmt.Errorf("hbnet: %s %q already being removed", set.kind, name)
	}
	up.removing = true
	return up, nil
}

// retire is the one retire step, shared by removal and stream end: free
// the name and — for a raw upstream — close the app's downsampler account,
// appending its mid-window counts as one last emission so rollup
// conservation holds across the retirement. The emission lands in the same
// call, so no window tick can come between the two. (Compactor state is
// keyed by application, not by child name, so it stays.)
func (c *relayCore) retire(up *relayUpstream, now time.Time) {
	up.set.remove(up.name)
	if up.stream != nil {
		if final, active := c.ds.Remove(up.name, c.winFrom, now); active {
			c.rollups.append([]observer.Rollup{final})
		}
	}
}

// ended records that up's stream has ended for good and retires it,
// unless a removal owns its teardown or close has already handed the
// stream over. It reports whether the stream is now the caller's to close.
func (c *relayCore) ended(up *relayUpstream, now time.Time) bool {
	up.eof = true
	if up.removing || c.closed {
		return false
	}
	c.retire(up, now)
	return true
}

// absorb folds one delivery into the state. A child's rollup windows go to
// the compactor. A raw batch goes into the replay ring (re-sequenced,
// loss-widened) and into the app's rollup window; both copy the record
// values out, so the caller may recycle the batch once absorb returns.
func (c *relayCore) absorb(ev *relayEvent) {
	up := ev.up
	if up.rstream != nil {
		for _, ru := range ev.rbatch.Rollups {
			c.compactor.Absorb(ru)
		}
		c.rupMissed += ev.rbatch.Missed
		return
	}
	c.merged.append(ev.batch.Records, ev.batch.Missed, up.id)
	c.ds.Absorb(up.name, ev.batch)
}

// start opens a rollup window at now for a new run and returns every
// registration, whose pumps the run starts.
func (c *relayCore) start(now time.Time) []*relayUpstream {
	c.winFrom = now
	return c.upstreams()
}

// tick closes the rollup window at now: one rollup per raw upstream into
// rollups, one per application into compacted. It returns the former.
func (c *relayCore) tick(now time.Time) []observer.Rollup {
	rs := c.ds.Flush(c.winFrom, now)
	c.rollups.append(rs)
	c.compacted.append(c.compactor.Flush(c.winFrom, now))
	c.winFrom = now
	return rs
}

// close ends the relay (rings read as ended once drained) and, the first
// time, returns every registration for the shell to stop and release.
func (c *relayCore) close() []*relayUpstream {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.upstreams()
}

// upstreams returns every registration, raw then rollup, each in
// registration order.
func (c *relayCore) upstreams() []*relayUpstream {
	var ups []*relayUpstream
	for _, set := range []*upstreamSet{&c.raw, &c.rollup} {
		for _, name := range set.order {
			ups = append(ups, set.byName[name])
		}
	}
	return ups
}

// replayRing is the relay's merged history: a bounded ring of records in
// the relay's own dense sequence space, fanned out to any number of
// cursor-carrying subscribers. Appends re-sequence the records (a relay
// hop assigns hop-local sequence numbers — origin spaces from different
// upstreams collide) and widen the space by the upstream's reported losses,
// so a gap in the upstream surfaces to every subscriber exactly once, as
// Missed, through ordinary cursor arithmetic.
type replayRing struct {
	recs  []replayEntry // ring storage, strictly increasing seq
	start int
	n     int
	head  uint64 // newest assigned seq, counting gap (missed) seqs

	// Shed accounting: winBase is the newest evicted record's Seq — a
	// cursor at or above it is still inside the retained window; a cursor
	// below it has been lapped and the span up to the shed floor is
	// charged to shedTotal when the subscriber next reads. lagBound, when
	// positive, additionally floors every read at head-lagBound (the
	// WithShedLag policy), so a slow subscriber is advanced and the skip
	// counted instead of silently trailing the full ring.
	winBase   uint64
	lagBound  int
	shedTotal uint64

	// Encode-once fan-out cache: the encoded frame of the last frameSince
	// read, keyed by the cursor it was read from. In the fan-out steady
	// state every subscriber sits at the same cursor, so N subscribers
	// share one encode and one buffer instead of paying N. Invalidated (its
	// reference released) by every append.
	fbuf *frameBuf
	fkey uint64 // the `since` the cached frame was encoded for
	fcur uint64 // the cursor the cached frame advances to
}

// replayEntry is one retained record as the wire carries it: 32 bytes and
// no pointer, where a heartbeat.Record is 48 bytes and, through its
// time.Time's *Location, pointer-bearing — so a full ring is a span the
// garbage collector never scans. Records convert on the way in (append) and
// back at the API edge (readSince); frameSince encodes straight from it.
type replayEntry struct {
	seq      uint64
	nanos    int64
	tag      int64
	producer int32
}

// append re-sequences recs into the ring. missed widens the sequence space
// without storing records; producer, when >= 0, overwrites each record's
// Producer with the hop-local upstream id. The batch is written in at most
// two contiguous spans; records it would lap within itself are skipped.
func (r *replayRing) append(recs []heartbeat.Record, missed uint64, producer int32) {
	if len(recs) == 0 && missed == 0 {
		return
	}
	r.head += missed
	if m := len(recs); m > 0 {
		base := r.head + 1 // recs[j] gets seq base+j
		c := len(r.recs)
		skip := max(m-c, 0) // lapped within the batch itself
		pos := (r.start + r.n + skip) % c
		if evict := r.n + m - c; evict > 0 {
			// The oldest evict entries of the window followed by the batch
			// are overwritten: every cursor below the newest of them is now
			// lapped (see winBase).
			if evict <= r.n {
				r.winBase = r.recs[(r.start+evict-1)%c].seq
			} else {
				r.winBase = base + uint64(evict-r.n-1)
			}
			r.start = (r.start + evict) % c
		}
		r.n = min(r.n+m, c)
		for j := skip; j < m; {
			span := r.recs[pos:min(c, pos+m-j)]
			for k := range span {
				rec := &recs[j+k]
				span[k] = replayEntry{seq: base + uint64(j+k), nanos: rec.Time.UnixNano(), tag: rec.Tag, producer: rec.Producer}
				if producer >= 0 {
					span[k].producer = producer
				}
			}
			j, pos = j+len(span), 0
		}
		r.head += uint64(m)
	}
	if r.fbuf != nil {
		r.fbuf.release()
		r.fbuf = nil
	}
}

// window returns the k retained entries from window index i (0 is the
// oldest) as at most two contiguous runs of ring storage, in seq order:
// the ring's one walk, shared by readSince and frameSince.
func (r *replayRing) window(i, k int) (lo, hi []replayEntry) {
	c := len(r.recs)
	from, to := r.start+i, r.start+i+k
	switch {
	case from >= c:
		return r.recs[from-c : to-c], nil
	case to <= c:
		return r.recs[from:to], nil
	default:
		return r.recs[from:], r.recs[:to-c]
	}
}

// seek returns the cursor a read from since proceeds from: the shed floor
// when since is below it — winBase (everything below it was lapped out),
// raised to head-lagBound under the shed-lag policy. The span skipped was
// dropped by THIS ring, so it is charged to shedTotal and returned as shed.
func (r *replayRing) seek(since uint64) (from, shed uint64) {
	floor := r.winBase
	if r.lagBound > 0 && r.head > uint64(r.lagBound) {
		floor = max(floor, r.head-uint64(r.lagBound))
	}
	if since >= floor {
		return since, 0
	}
	r.shedTotal += floor - since
	return floor, floor - since
}

// next locates the read after from: the window index of its first entry,
// how many entries it takes (at most max), and the cursor it advances to —
// head when max does not cut it short, so trailing gap seqs (upstream
// losses with no records) are accounted in the same read.
func (r *replayRing) next(from uint64, max int) (i, take int, cur uint64) {
	i = sort.Search(r.n, func(i int) bool { return r.recs[(r.start+i)%len(r.recs)].seq > from })
	take, cur = r.n-i, r.head
	if take > max {
		take = max
		cur = r.recs[(r.start+i+take-1)%len(r.recs)].seq
	}
	return i, take, cur
}

// readSince returns up to max retained records with Seq > since, the
// cursor to resume from (see next) and how many seqs below the shed floor
// were skipped for this subscriber (see seek). A read with nothing newer
// than since — idle, or a foreign cursor from a previous relay life (head
// < since) — returns head, so the caller waits or resynchronizes.
func (r *replayRing) readSince(since uint64, max int) (out []heartbeat.Record, cur uint64, shed uint64) {
	if r.head <= since {
		return nil, r.head, 0
	}
	from, shed := r.seek(since)
	i, take, cur := r.next(from, max)
	if take > 0 {
		out = make([]heartbeat.Record, 0, take)
		lo, hi := r.window(i, take)
		for _, span := range [2][]replayEntry{lo, hi} {
			for _, e := range span {
				out = append(out, heartbeat.Record{Seq: e.seq, Time: time.Unix(0, e.nanos), Tag: e.tag, Producer: e.producer})
			}
		}
	}
	return out, cur, shed
}

// frameSince is readSince's zero-copy counterpart: the same read, returned
// as an encoded batch frame built directly from ring storage — no record
// slice is materialized, and the encode happens at most once per (cursor,
// head) because the result is cached until the next append. The returned
// frame carries one reference owned by the caller; release it after
// writing. A nil frame means nothing newer than since exists — cur then
// reports head, as readSince's does.
//
// Frame size needs no guard here: take <= cursor.Page and a record
// encodes to at most maxRecordBytes, keeping every frame far inside
// maxFramePayload.
func (r *replayRing) frameSince(since uint64, max int) (fb *frameBuf, cur uint64, shed uint64) {
	if r.head <= since {
		return nil, r.head, 0
	}
	// Shed is charged before the cache check, so a cache hit still charges
	// this subscriber; the frame's Missed is computed from since.
	from, shed := r.seek(since)
	if r.fbuf != nil && r.fkey == since {
		r.fbuf.retain()
		return r.fbuf, r.fcur, shed
	}
	i, take, cur := r.next(from, max)
	var b observer.Batch
	b.Count = cur
	_, b.Missed, _ = cursor.Advance(since, cur, take)
	fb = newFrameBuf()
	buf := append(fb.data, 0, 0, 0, 0)
	buf = appendBatchMeta(buf, b, cur, take)
	var prevSeq uint64
	var prevNanos int64
	lo, hi := r.window(i, take)
	for _, span := range [2][]replayEntry{lo, hi} {
		for k := range span {
			e := &span[k]
			buf = appendRecordDelta(buf, e.seq, e.nanos, e.tag, e.producer, &prevSeq, &prevNanos)
		}
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	fb.data = buf
	// The cache takes its own reference; the caller keeps the original.
	fb.retain()
	if r.fbuf != nil {
		r.fbuf.release()
	}
	r.fbuf, r.fkey, r.fcur = fb, since, cur
	return fb, cur, shed
}

// rollupRing retains the last rollupRetain rollup emissions (one emission
// = the rollups of every tracked app for one downsample window) for replay
// to reconnecting rollup subscribers.
type rollupRing struct {
	emits [][]observer.Rollup
	start int
	n     int
	head  uint64 // emission count
}

// append adds one emission; an empty one is not an emission.
func (r *rollupRing) append(rs []observer.Rollup) {
	if len(rs) == 0 {
		return
	}
	r.head++
	r.emits[(r.start+r.n)%len(r.emits)] = rs
	if r.n < len(r.emits) {
		r.n++
	} else {
		r.start = (r.start + 1) % len(r.emits)
	}
}

// readSince returns the flattened rollups of emissions since+1..head
// (bounded by maxRollupBatchBytes, whole emissions, at least one), the
// emission cursor consumed up to, and how many emissions were delivered.
// With nothing newer than since it returns head, as replayRing's does.
func (r *rollupRing) readSince(since uint64) (out []observer.Rollup, cur uint64, delivered uint64) {
	if r.head <= since {
		return nil, r.head, 0
	}
	oldest := r.head - uint64(r.n) + 1
	first := since + 1
	if first < oldest {
		first = oldest // the gap below is the caller's Missed
	}
	cur = since
	bytes := 0
	for e := first; e <= r.head; e++ {
		rs := r.emits[(r.start+int(e-oldest))%len(r.emits)]
		cost := 0
		for _, ru := range rs {
			cost += rollupWireCost(ru)
		}
		if len(out) > 0 && bytes+cost > maxRollupBatchBytes {
			break
		}
		out = append(out, rs...)
		bytes += cost
		delivered++
		cur = e
	}
	return out, cur, delivered
}
