package hbnet

import (
	"bytes"
	"testing"
	"time"

	"repro/heartbeat"
	"repro/internal/cursor"
)

// referenceAppend is replayRing.append one record at a time, with a
// modulo per record: the meaning the span append must keep.
func referenceAppend(r *replayRing, recs []heartbeat.Record, missed uint64, producer int32) {
	r.head += missed
	for _, rec := range recs {
		r.head++
		e := replayEntry{seq: r.head, nanos: rec.Time.UnixNano(), tag: rec.Tag, producer: rec.Producer}
		if producer >= 0 {
			e.producer = producer
		}
		idx := (r.start + r.n) % len(r.recs)
		if r.n < len(r.recs) {
			r.n++
		} else {
			r.winBase = r.recs[idx].seq
			r.start = (r.start + 1) % len(r.recs)
		}
		r.recs[idx] = e
	}
	if r.fbuf != nil {
		r.fbuf.release()
		r.fbuf = nil
	}
}

// referenceWindow lists the retained entries with seq > after, oldest
// first, by a modulo walk.
func referenceWindow(r *replayRing, after uint64) []replayEntry {
	var out []replayEntry
	for k := 0; k < r.n; k++ {
		if e := r.recs[(r.start+k)%len(r.recs)]; e.seq > after {
			out = append(out, e)
		}
	}
	return out
}

// The span append leaves the ring exactly as the per-record append does:
// every capacity from 1 to 5, every batch size from 0 to 2c+1 (so batches
// that lap the ring, and themselves, from every start), with and without
// upstream gaps and a producer override. Reads from a lapped cursor charge
// the same shed on both rings, and every append releases the cached frame.
func TestReplayRingAppendMatchesReference(t *testing.T) {
	var next int64
	batch := func(m int) []heartbeat.Record {
		recs := make([]heartbeat.Record, m)
		for i := range recs {
			next++
			recs[i] = heartbeat.Record{Seq: uint64(next), Time: time.Unix(0, next*7), Tag: next << 20, Producer: int32(next % 5)}
		}
		return recs
	}
	for c := 1; c <= 5; c++ {
		for _, producer := range []int32{-1, 9} {
			for _, gap := range []uint64{0, 3} {
				r, ref := &newRelayCore(c, 0, time.Time{}).merged, &newRelayCore(c, 0, time.Time{}).merged
				var sizes []int
				for m := 0; m <= 2*c+1; m++ {
					sizes = append(sizes, m)
				}
				for m := 2*c + 1; m >= 0; m-- {
					sizes = append(sizes, m, 1)
				}
				for step, m := range sizes {
					recs := batch(m)
					missed := gap * uint64(step%2)
					var cached *frameBuf
					if r.head > 0 {
						cached, _, _ = r.frameSince(r.head-1, cursor.Page)
					}
					r.append(recs, missed, producer)
					referenceAppend(ref, recs, missed, producer)

					if r.head != ref.head || r.winBase != ref.winBase || r.start != ref.start || r.n != ref.n {
						t.Fatalf("c=%d producer=%d step %d (+%d records, %d missed): head/winBase/start/n = %d/%d/%d/%d, reference %d/%d/%d/%d",
							c, producer, step, m, missed, r.head, r.winBase, r.start, r.n, ref.head, ref.winBase, ref.start, ref.n)
					}
					for i := range r.recs {
						if r.recs[i] != ref.recs[i] {
							t.Fatalf("c=%d producer=%d step %d: slot %d = %+v, reference %+v", c, producer, step, i, r.recs[i], ref.recs[i])
						}
					}
					if cached != nil {
						if (m > 0 || missed > 0) && (r.fbuf != nil || cached.refs.Load() != 1) {
							t.Fatalf("c=%d step %d: append kept the cached frame (refs %d)", c, step, cached.refs.Load())
						}
						cached.release()
					}

					// Every cursor from 0 to head: lapped ones are charged
					// the same shed, and both rings serve the same frames.
					for since := uint64(0); since <= r.head; since++ {
						for _, max := range []int{2, cursor.Page} {
							got, gotCur, gotShed := r.readSince(since, max)
							want, wantCur, wantShed := ref.readSince(since, max)
							if gotCur != wantCur || gotShed != wantShed || len(got) != len(want) {
								t.Fatalf("c=%d step %d: readSince(%d) cursor/shed/len = %d/%d/%d, reference %d/%d/%d",
									c, step, since, gotCur, gotShed, len(got), wantCur, wantShed, len(want))
							}
							// The two-span walk serves what a modulo walk finds.
							for i, e := range referenceWindow(ref, since+wantShed)[:len(want)] {
								w := heartbeat.Record{Seq: e.seq, Time: time.Unix(0, e.nanos), Tag: e.tag, Producer: e.producer}
								if got[i] != w {
									t.Fatalf("c=%d step %d: readSince(%d)[%d] = %+v, reference %+v", c, step, since, i, got[i], w)
								}
							}
							gotFB, gotCur, gotShed := r.frameSince(since, max)
							wantFB, wantCur, wantShed := ref.frameSince(since, max)
							if gotCur != wantCur || gotShed != wantShed || (gotFB == nil) != (wantFB == nil) {
								t.Fatalf("c=%d step %d: frameSince(%d) cursor/shed = %d/%d, reference %d/%d", c, step, since, gotCur, gotShed, wantCur, wantShed)
							}
							if gotFB != nil {
								if !bytes.Equal(gotFB.data, wantFB.data) {
									t.Fatalf("c=%d step %d: frameSince(%d) = % x, reference % x", c, step, since, gotFB.data, wantFB.data)
								}
								gotFB.release()
								wantFB.release()
							}
						}
					}
					if r.shedTotal != ref.shedTotal {
						t.Fatalf("c=%d step %d: shed %d, reference %d", c, step, r.shedTotal, ref.shedTotal)
					}
				}
			}
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
	// Start the window near the end of storage, so the walk wraps.
	r.append(saturatedRecords(1<<16-benchBatchRecords/2), 0, -1)
	r.append(saturatedRecords(benchBatchRecords), 0, -1)
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
