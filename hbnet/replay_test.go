package hbnet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/heartbeat"
	"repro/internal/cursor"
	"repro/observer"
)

// refRing is what the replay ring means, with none of its mechanics: limit
// slots allocated up front, filled one record at a time by a modulo, read
// by a modulo walk, and one cached frame keyed by the cursor it was read
// from and dropped by every append. However the ring under test grows its
// storage, it must retain, shed and serve exactly what this does.
type refRing struct {
	slots     []replayEntry
	start, n  int
	head      uint64
	winBase   uint64 // newest evicted seq
	lagBound  int
	shedTotal uint64

	cframe     []byte // nil when no frame is cached
	ckey, ccur uint64
}

func newRefRing(limit, lagBound int) *refRing {
	return &refRing{slots: make([]replayEntry, limit), lagBound: lagBound}
}

func (r *refRing) append(recs []heartbeat.Record, missed uint64, producer int32) {
	if len(recs) == 0 && missed == 0 {
		return
	}
	r.head += missed
	for _, rec := range recs {
		r.head++
		e := replayEntry{seq: r.head, nanos: rec.Time.UnixNano(), tag: rec.Tag, producer: rec.Producer}
		if producer >= 0 {
			e.producer = producer
		}
		idx := (r.start + r.n) % len(r.slots)
		if r.n < len(r.slots) {
			r.n++
		} else {
			r.winBase = r.slots[idx].seq
			r.start = (r.start + 1) % len(r.slots)
		}
		r.slots[idx] = e
	}
	r.cframe = nil
}

// window lists the retained entries, oldest first.
func (r *refRing) window() []replayEntry {
	out := make([]replayEntry, r.n)
	for k := range out {
		out[k] = r.slots[(r.start+k)%len(r.slots)]
	}
	return out
}

// read is readSince: since is raised to the shed floor (the newest evicted
// seq, or head-lagBound) and the skip charged; then up to page entries
// newer than it, and the cursor after them — head unless page cut the
// read short.
func (r *refRing) read(since uint64, page int) (out []replayEntry, cur, shed uint64) {
	if r.head <= since {
		return nil, r.head, 0
	}
	floor := r.winBase
	if r.lagBound > 0 && r.head > uint64(r.lagBound) {
		floor = max(floor, r.head-uint64(r.lagBound))
	}
	if since < floor {
		shed = floor - since
		r.shedTotal += shed
	}
	cur = r.head
	for _, e := range r.window() {
		if e.seq <= since+shed {
			continue
		}
		if len(out) == page {
			cur = out[len(out)-1].seq
			break
		}
		out = append(out, e)
	}
	return out, cur, shed
}

// frame is frameSince: read's entries encoded as one length-prefixed batch
// frame at cur, whose Missed is every seq from since to cur not delivered.
// A second read at the same since before an append serves the cached frame
// and still charges its shed.
func (r *refRing) frame(since uint64, page int) (frame []byte, cur, shed uint64) {
	if r.head <= since {
		return nil, r.head, 0
	}
	out, cur, shed := r.read(since, page)
	if r.cframe != nil && r.ckey == since {
		return r.cframe, r.ccur, shed
	}
	b := observer.Batch{Count: cur, Missed: cur - since - uint64(len(out))}
	for _, e := range out {
		b.Records = append(b.Records, entryRecord(e))
	}
	body := appendBatch(nil, b, cur)
	frame = append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
	r.cframe, r.ckey, r.ccur = frame, since, cur
	return frame, cur, shed
}

func entryRecord(e replayEntry) heartbeat.Record {
	return heartbeat.Record{Seq: e.seq, Time: time.Unix(0, e.nanos), Tag: e.tag, Producer: e.producer}
}

// checkRing fails unless r holds what ref holds — the same window, head,
// lapped floor and shed — in storage that holds the window and never
// exceeds the ring's limit.
func checkRing(t testing.TB, r *replayRing, ref *refRing, what string) {
	t.Helper()
	if len(r.recs) > len(ref.slots) || r.limit != len(ref.slots) || r.n > len(r.recs) {
		t.Fatalf("%s: storage %d entries, window %d, limit %d (reference %d)", what, len(r.recs), r.n, r.limit, len(ref.slots))
	}
	if r.head != ref.head || r.winBase != ref.winBase || r.shedTotal != ref.shedTotal {
		t.Fatalf("%s: head/winBase/shed = %d/%d/%d, reference %d/%d/%d",
			what, r.head, r.winBase, r.shedTotal, ref.head, ref.winBase, ref.shedTotal)
	}
	lo, hi := r.window(0, r.n)
	if got, want := append(slices.Clone(lo), hi...), ref.window(); !slices.Equal(got, want) {
		t.Fatalf("%s: window of %d entries %v, reference %d entries %v", what, len(got), got, len(want), want)
	}
}

// checkReadSince fails unless a readSince from since serves r and ref the
// same records, cursor and shed.
func checkReadSince(t testing.TB, r *replayRing, ref *refRing, since uint64, page int, what string) {
	t.Helper()
	got, gotCur, gotShed := r.readSince(since, page)
	want, wantCur, wantShed := ref.read(since, page)
	if gotCur != wantCur || gotShed != wantShed || len(got) != len(want) {
		t.Fatalf("%s: readSince(%d, %d) cursor/shed/len = %d/%d/%d, reference %d/%d/%d",
			what, since, page, gotCur, gotShed, len(got), wantCur, wantShed, len(want))
	}
	for i, e := range want {
		if w := entryRecord(e); got[i] != w {
			t.Fatalf("%s: readSince(%d, %d)[%d] = %+v, reference %+v", what, since, page, i, got[i], w)
		}
	}
}

// checkFrameSince fails unless a frameSince from since serves r and ref
// the same cursor, shed and frame bytes.
func checkFrameSince(t testing.TB, r *replayRing, ref *refRing, since uint64, page int, what string) {
	t.Helper()
	fb, gotCur, gotShed := r.frameSince(since, page)
	frame, wantCur, wantShed := ref.frame(since, page)
	if gotCur != wantCur || gotShed != wantShed || (fb == nil) != (frame == nil) {
		t.Fatalf("%s: frameSince(%d, %d) cursor/shed/frame = %d/%d/%t, reference %d/%d/%t",
			what, since, page, gotCur, gotShed, fb != nil, wantCur, wantShed, frame != nil)
	}
	if fb != nil {
		if !bytes.Equal(fb.data, frame) {
			t.Fatalf("%s: frameSince(%d, %d) = % x, reference % x", what, since, page, fb.data, frame)
		}
		fb.release()
	}
}

// recordSource hands out records with distinct fields, so a record that
// lands in the wrong slot or is served twice shows.
type recordSource int64

func (s *recordSource) batch(m int) []heartbeat.Record {
	recs := make([]heartbeat.Record, m)
	for i := range recs {
		*s++
		n := int64(*s)
		recs[i] = heartbeat.Record{Seq: uint64(n), Time: time.Unix(0, n*7), Tag: n << 20, Producer: int32(n % 5)}
	}
	return recs
}

// The ring keeps the reference's meaning for every limit from 1 to 5 and
// every batch size from 0 to 2·limit+1 (so batches that lap the ring, and
// themselves, from every start), with and without upstream gaps and a
// producer override: the same window after every append, and the same
// records, cursor, shed and frame bytes from every cursor up to past head.
// Every append releases the cached frame.
func TestReplayRingAppendMatchesReference(t *testing.T) {
	var src recordSource
	for limit := 1; limit <= 5; limit++ {
		for _, producer := range []int32{-1, 9} {
			for _, gap := range []uint64{0, 3} {
				r, ref := &newRelayCore(limit, 0, time.Time{}).merged, newRefRing(limit, 0)
				var sizes []int
				for m := 0; m <= 2*limit+1; m++ {
					sizes = append(sizes, m)
				}
				for m := 2*limit + 1; m >= 0; m-- {
					sizes = append(sizes, m, 1)
				}
				for step, m := range sizes {
					what := fmt.Sprintf("limit=%d producer=%d gap=%d step %d (+%d records)", limit, producer, gap, step, m)
					recs := src.batch(m)
					missed := gap * uint64(step%2)
					var cached *frameBuf
					if r.head > 0 {
						cached, _, _ = r.frameSince(r.head-1, cursor.Page)
						ref.frame(r.head-1, cursor.Page)
					}
					r.append(recs, missed, producer)
					ref.append(recs, missed, producer)
					checkRing(t, r, ref, what)
					if cached != nil {
						if (m > 0 || missed > 0) && (r.fbuf != nil || cached.refs.Load() != 1) {
							t.Fatalf("%s: append kept the cached frame (refs %d)", what, cached.refs.Load())
						}
						cached.release()
					}
					for since := uint64(0); since <= r.head+1; since++ {
						for _, page := range []int{2, cursor.Page} {
							checkReadSince(t, r, ref, since, page, what)
							checkFrameSince(t, r, ref, since, page, what)
						}
					}
					checkRing(t, r, ref, what)
				}
			}
		}
	}
}

// FuzzReplayRingMatchesReference scripts a ring against the reference.
// Byte 0 picks the limit: 1 to 128, or 512 to 4 195 so storage grows in
// doubling steps and is capped at odd and non-power-of-two sizes; byte 1
// a shed-lag bound (half of them none). Then each three bytes [op, a, b]
// are one step, v = a<<8|b, chosen by op&3:
//
//	0: append v mod (2·limit+1) records after (op>>2)&3 missed seqs, with
//	   the producer overridden when op&0x10;
//	1, 2, 3: readSince, frameSince or both, from a cursor: head minus v
//	   mod (limit+2) when op&0x10, else v mod (head+2); page 1+op>>5, or
//	   cursor.Page when that is 8.
//
// Steps past the first maxSteps are ignored, which bounds one input's
// cost. After every step the ring holds what the reference holds, in
// storage that holds the window and never exceeds the limit.
func FuzzReplayRingMatchesReference(f *testing.F) {
	const appendOp, readOp, frameOp, bothOp = 0, 1, 2, 3
	const maxSteps = 48
	const near, pageMax = 0x10, 7 << 5
	step := func(op byte, v int) []byte { return []byte{op, byte(v >> 8), byte(v)} }
	seed := func(limitByte, lagByte byte, steps ...[]byte) {
		f.Add(append([]byte{limitByte, lagByte}, slices.Concat(steps...)...))
	}
	seed(8, 0, step(appendOp, 3), step(bothOp|near, 1), step(appendOp|4<<2|near, 9), step(bothOp, 0), step(frameOp|near|pageMax, 2))
	seed(37, 0, step(appendOp, 1), step(appendOp, firstGrow), step(bothOp|near, 1), step(appendOp|near, 2000), step(bothOp, 500))
	seed(111, 7, step(appendOp, 1500), step(appendOp|2<<2, 2500), step(bothOp|near|pageMax, 2106), step(appendOp, 4000), step(readOp, 3000), step(frameOp|near, 50))
	seed(255, 0, step(appendOp, 8000), step(bothOp|near|pageMax, 4000), step(appendOp, 8390), step(bothOp, 9000))

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		limit := 1 + int(script[0]>>1)
		if script[0]&1 != 0 {
			limit = firstGrow/2 + int(script[0]>>1)*29
		}
		lagBound := 0
		if script[1]&1 != 0 {
			lagBound = 1 + int(script[1]>>1)%(2*limit)
		}
		r, ref := &newRelayCore(limit, lagBound, time.Time{}).merged, newRefRing(limit, lagBound)
		var src recordSource
		for k := 2; k+3 <= min(len(script), 2+3*maxSteps); k += 3 {
			op, v := script[k], int(script[k+1])<<8|int(script[k+2])
			what := fmt.Sprintf("limit=%d lag=%d step %d (op %#x, v %d)", limit, lagBound, k/3, op, v)
			if op&3 == appendOp {
				recs, missed, producer := src.batch(v%(2*limit+1)), uint64(op>>2&3), int32(-1)
				if op&near != 0 {
					producer = 9
				}
				r.append(recs, missed, producer)
				ref.append(recs, missed, producer)
				checkRing(t, r, ref, what)
				continue
			}
			since := uint64(v) % (r.head + 2)
			if op&near != 0 {
				since = r.head - min(r.head, uint64(v%(limit+2)))
			}
			page := 1 + int(op>>5)
			if page == 8 {
				page = cursor.Page
			}
			if op&readOp != 0 {
				checkReadSince(t, r, ref, since, page, what)
			}
			if op&frameOp != 0 {
				checkFrameSince(t, r, ref, since, page, what)
			}
			checkRing(t, r, ref, what)
		}
	})
}

// Once storage has reached its limit, an append allocates nothing: the
// steady state of every relay whose feed has filled its bound.
func TestReplayRingFullAppendDoesNotAllocate(t *testing.T) {
	const limit = 3 * firstGrow
	r := &newRelayCore(limit, 0, time.Time{}).merged
	recs := saturatedRecords(firstGrow)
	for r.n < limit {
		r.append(recs, 0, -1)
	}
	if allocs := testing.AllocsPerRun(20, func() { r.append(recs, 1, 7) }); allocs != 0 {
		t.Fatalf("full-ring append: %v allocations, want 0", allocs)
	}
	if len(r.recs) != limit {
		t.Fatalf("storage %d entries, want the limit %d", len(r.recs), limit)
	}
}

// Storage grows by doubling from firstGrow, each step sized by the window
// it must hold and capped at the limit; a ring fed only gap seqs allocates
// nothing.
func TestReplayRingGrowsByTraffic(t *testing.T) {
	const limit = 5*firstGrow + 3
	r := &newRelayCore(limit, 0, time.Time{}).merged
	r.append(nil, 40, -1)
	if r.recs != nil {
		t.Fatalf("gap seqs alone allocated %d entries", len(r.recs))
	}
	for _, tc := range []struct{ add, storage int }{
		{1, firstGrow},
		{firstGrow - 1, firstGrow},
		{1, 2 * firstGrow},
		{3*firstGrow - 1, 4 * firstGrow}, // 4 096 entries: one doubling holds them
		{1, limit},                       // capped, not 8·firstGrow
		{limit, limit},
	} {
		r.append(saturatedRecords(tc.add), 0, -1)
		if len(r.recs) != tc.storage {
			t.Fatalf("after +%d records (window %d): storage %d entries, want %d", tc.add, r.n, len(r.recs), tc.storage)
		}
	}
}

// Once the frame pool is warm, a frameSince cache miss — a full encode of
// the retained window — allocates nothing.
func TestFrameSinceWarmedDoesNotAllocate(t *testing.T) {
	r := &newRelayCore(benchBatchRecords, 0, time.Time{}).merged
	r.append(saturatedRecords(benchBatchRecords), 0, -1)
	miss := func(since uint64) {
		fb, _, _ := r.frameSince(since, cursor.Page)
		if fb == nil {
			t.Fatalf("frameSince(%d): no frame", since)
		}
		fb.release()
	}
	for i := 0; i < 4; i++ {
		miss(uint64(i % 2))
	}
	// Alternating cursors miss the one-frame cache on every call.
	if allocs := testing.AllocsPerRun(20, func() { miss(0); miss(1) }); allocs != 0 {
		t.Fatalf("frameSince cache misses: %v allocations per pair, want 0", allocs)
	}
}

// BenchmarkFrameSince is the encode half of a relay hop's codec and its
// ring walk: one 16 384-record frame from the replay ring on every call (a
// cache miss each time), per record.
func BenchmarkFrameSince(b *testing.B) {
	r := &newRelayCore(1<<16, 0, time.Time{}).merged
	// Start the window near the end of storage, so the walk wraps: the
	// first append lands at storage index 0 and fills all but half a
	// batch, the second evicts and wraps.
	r.append(saturatedRecords(1<<16-benchBatchRecords/2), 0, -1)
	r.append(saturatedRecords(benchBatchRecords), 0, -1)
	if _, hi := r.window(r.n-benchBatchRecords, benchBatchRecords); len(hi) == 0 {
		b.Fatal("the walk does not wrap")
	}
	since := r.head - benchBatchRecords
	var records int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := since + uint64(i&1) // alternating cursors miss the cache
		fb, _, _ := r.frameSince(s, cursor.Page)
		fb.release()
		records += int(r.head - s)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}

// BenchmarkReplayRingAppend is a relay hop's ring append, per record:
// 16 384-record batches into a ring at its limit (the steady state), and
// into rings filling from empty to a 1<<18-record limit, growth copies
// included.
func BenchmarkReplayRingAppend(b *testing.B) {
	recs := saturatedRecords(benchBatchRecords)
	bench := func(b *testing.B, limit int, fill bool) {
		r := &newRelayCore(limit, 0, time.Time{}).merged
		for !fill && r.n < limit {
			r.append(recs, 0, -1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if fill && r.n == limit {
				r = &newRelayCore(limit, 0, time.Time{}).merged
			}
			r.append(recs, 0, -1)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
	}
	b.Run("full", func(b *testing.B) { bench(b, 1<<16, false) })
	b.Run("filling", func(b *testing.B) { bench(b, 1<<18, true) })
}
