package hbnet

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/heartbeat"
	"repro/observer"
)

// Fuzz targets for the wire codec: the decoders face bytes from the
// network, so they must never panic, never allocate absurdly, and — when
// they do accept a frame — decode it to a value that re-encodes to the
// same meaning (the round-trip stability property the hand-written tests
// check on friendly inputs, extended to adversarial ones). Seed corpus:
// the encodings the round-trip tests exercise.

// fuzzSeedBatch is a representative batch covering the encoder's paths:
// targets set, missed records, negative tags, non-dense foreign seqs.
func fuzzSeedBatch() observer.Batch {
	base := time.Unix(1234, 567)
	return observer.Batch{
		Count:     1007,
		Window:    20,
		Missed:    3,
		TargetMin: 5.5, TargetMax: 99.25, TargetSet: true,
		Records: []heartbeat.Record{
			{Seq: 5, Time: base, Tag: -7, Producer: 2},
			{Seq: 6, Time: base.Add(time.Millisecond), Tag: 0, Producer: 0},
			{Seq: 100, Time: base.Add(-time.Second), Tag: 1 << 40, Producer: 31},
		},
	}
}

func fuzzSeedRollups() RollupBatch {
	base := time.Unix(1234, 567)
	return RollupBatch{
		Cursor: 42,
		Missed: 3,
		Rollups: []observer.Rollup{
			{
				App: "video", Start: base, End: base.Add(time.Second),
				Records: 100, Missed: 2, Count: 102,
				Rate: heartbeat.Rate{PerSec: 99.5, Beats: 100, Span: 995 * time.Millisecond,
					FirstSeq: 3, LastSeq: 102},
				RateOK:      true,
				MinInterval: 9 * time.Millisecond, MaxInterval: 11 * time.Millisecond,
				MeanInterval: 10 * time.Millisecond,
			},
			{App: "silent", Start: base, End: base.Add(time.Second)},
		},
	}
}

// FuzzDecodeFrame fuzzes every frame decoder through the type-byte
// dispatch a connection reader performs.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(appendHello(nil, "app", 123))
	f.Add(appendWelcome(nil, 456))
	f.Add(appendError(nil, "feed file mid-recreation", false))
	f.Add(appendError(nil, "unknown feed", true))
	f.Add([]byte{frameEOF})
	f.Add(appendBatch(nil, fuzzSeedBatch(), 1009))
	f.Add(appendBatch(nil, observer.Batch{}, 0))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) == 0 {
			return
		}
		body := payload[1:]
		switch payload[0] {
		case frameHello:
			feed, since, err := decodeHello(body)
			if err == nil {
				redecFeed, redecSince, rerr := decodeHello(appendHello(nil, feed, since)[1:])
				if rerr != nil || redecFeed != feed || redecSince != since {
					t.Fatalf("hello not stable: %q/%d -> %q/%d, %v", feed, since, redecFeed, redecSince, rerr)
				}
			}
		case frameWelcome:
			if cursor, err := decodeWelcome(body); err == nil {
				if redec, rerr := decodeWelcome(appendWelcome(nil, cursor)[1:]); rerr != nil || redec != cursor {
					t.Fatalf("welcome not stable: %d -> %d, %v", cursor, redec, rerr)
				}
			}
		case frameError:
			msg, permanent := decodeError(body)
			remsg, reperm := decodeError(appendError(nil, msg, permanent)[1:])
			if remsg != msg || reperm != permanent {
				t.Fatalf("error frame not stable: %q/%v -> %q/%v", msg, permanent, remsg, reperm)
			}
		case frameBatch:
			b, cursor, err := decodeBatchInto(body, nil)
			if err != nil {
				return
			}
			reenc := appendBatch(nil, b, cursor)
			b2, cursor2, rerr := decodeBatchInto(reenc[1:], nil)
			if rerr != nil || cursor2 != cursor || !batchEquivalent(b, b2) {
				t.Fatalf("batch not stable:\n in %+v (cursor %d)\nout %+v (cursor %d), %v", b, cursor, b2, cursor2, rerr)
			}
		case frameRollup:
			fuzzRollupBody(t, body)
		}
	})
}

// FuzzDecodeBatchMatchesReference holds decodeBatchInto's word-at-a-time
// record loop to the plain per-field loop it replaced
// (referenceDecodeBatch): on any body, the same records, the same cursor,
// and the same accept or reject. Seeds put the last records within 40
// bytes of the body's end, where the word path hands over to the careful
// decoder, and give fields of 8, 9 and 10 bytes, where it declines them.
func FuzzDecodeBatchMatchesReference(f *testing.F) {
	f.Add(appendBatch(nil, fuzzSeedBatch(), 1009)[1:])
	f.Add(appendBatch(nil, observer.Batch{Records: saturatedRecords(64)}, 64)[1:])
	for _, width := range []int{8, 9, 10} {
		// A seq delta of exactly width bytes (zig-zag of 2^(7(width-1))).
		wide := uint64(1) << (7*(width-1) - 1)
		for tail := 0; tail <= 40; tail += 4 {
			recs := []heartbeat.Record{
				{Seq: 1, Time: time.Unix(0, 1), Tag: 1 << 40},
				{Seq: 1 + wide, Time: time.Unix(0, 2), Tag: -1 << 50, Producer: 3},
			}
			for i := 0; i < tail/4; i++ {
				last := recs[len(recs)-1]
				recs = append(recs, heartbeat.Record{Seq: last.Seq + 1, Time: last.Time, Tag: 5})
			}
			f.Add(appendBatch(nil, observer.Batch{Records: recs, Count: 7}, 9)[1:])
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantCursor, wantErr := referenceDecodeBatch(body)
		got, gotCursor, err := decodeBatchInto(body, make([]heartbeat.Record, 0, len(body)/4+1))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeBatchInto err %v, reference err %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if gotCursor != wantCursor || !batchEquivalent(got, want) {
			t.Fatalf("decodeBatchInto differs from the reference:\n got %+v (cursor %d)\nwant %+v (cursor %d)", got, gotCursor, want, wantCursor)
		}
	})
}

// referenceDecodeBatch is the batch decoder as a plain loop of careful
// per-field reads, the meaning decodeBatchInto's fast path must keep.
func referenceDecodeBatch(body []byte) (b observer.Batch, cursor uint64, err error) {
	d := decoder{buf: body}
	cursor = d.uvarint()
	b.Count = d.uvarint()
	b.Window = int(d.uvarint())
	b.Missed = d.uvarint()
	if d.byte()&batchFlagTargetSet != 0 {
		b.TargetSet = true
		b.TargetMin = math.Float64frombits(d.uint64())
		b.TargetMax = math.Float64frombits(d.uint64())
	}
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)-d.off)/4+1 {
		return observer.Batch{}, 0, errFrameTooLarge
	}
	var prevSeq uint64
	var prevNanos int64
	for i := uint64(0); i < n && d.err == nil; i++ {
		seq := prevSeq + uint64(d.varint())
		nanos := prevNanos + d.varint()
		tag := d.varint()
		producer := d.varint()
		b.Records = append(b.Records, heartbeat.Record{Seq: seq, Time: time.Unix(0, nanos), Tag: tag, Producer: int32(producer)})
		prevSeq, prevNanos = seq, nanos
	}
	if d.err != nil {
		return observer.Batch{}, 0, d.err
	}
	return b, cursor, nil
}

// FuzzDecodeRollup aims the fuzzer squarely at the most intricate decoder.
func FuzzDecodeRollup(f *testing.F) {
	f.Add(appendRollups(nil, fuzzSeedRollups())[1:])
	f.Add(appendRollups(nil, RollupBatch{Cursor: 1})[1:])
	f.Fuzz(fuzzRollupBody)
}

func fuzzRollupBody(t *testing.T, body []byte) {
	rb, err := decodeRollups(body)
	if err != nil {
		return
	}
	reenc := appendRollups(nil, rb)
	rb2, rerr := decodeRollups(reenc[1:])
	if rerr != nil || !rollupsEquivalent(rb, rb2) {
		t.Fatalf("rollup batch not stable:\n in %+v\nout %+v, %v", rb, rb2, rerr)
	}
}

// rollupsEquivalent is DeepEqual up to float bit patterns: the wire
// faithfully carries a NaN rate (the fuzzer found one), and NaN != NaN
// would fail a comparison by value.
func rollupsEquivalent(a, b RollupBatch) bool {
	if a.Cursor != b.Cursor || a.Missed != b.Missed || len(a.Rollups) != len(b.Rollups) {
		return false
	}
	for i := range a.Rollups {
		ra, rb := a.Rollups[i], b.Rollups[i]
		if math.Float64bits(ra.Rate.PerSec) != math.Float64bits(rb.Rate.PerSec) {
			return false
		}
		ra.Rate.PerSec, rb.Rate.PerSec = 0, 0
		if !reflect.DeepEqual(ra, rb) {
			return false
		}
	}
	return true
}

// batchEquivalent compares decoded batches up to timestamp re-encoding:
// times survive as Unix nanoseconds, so compare them that way (a fuzzed
// delta chain can produce any nanosecond value; the meaning is the int64).
func batchEquivalent(a, b observer.Batch) bool {
	if a.Count != b.Count || a.Window != b.Window || a.Missed != b.Missed ||
		a.TargetSet != b.TargetSet || len(a.Records) != len(b.Records) {
		return false
	}
	if a.TargetSet {
		// Compare the bit patterns: NaN targets must round-trip too.
		if math.Float64bits(a.TargetMin) != math.Float64bits(b.TargetMin) ||
			math.Float64bits(a.TargetMax) != math.Float64bits(b.TargetMax) {
			return false
		}
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.Seq != rb.Seq || ra.Tag != rb.Tag || ra.Producer != rb.Producer ||
			ra.Time.UnixNano() != rb.Time.UnixNano() {
			return false
		}
	}
	return true
}
