package hbnet

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/heartbeat"
	"repro/observer"
)

func TestHelloRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		feed  string
		since uint64
	}{
		{"", 0},
		{"app", 42},
		{"a/b.c", math.MaxUint64},
	} {
		payload := appendHello(nil, tc.feed, tc.since)
		if payload[0] != frameHello {
			t.Fatalf("hello frame type %#x", payload[0])
		}
		feed, since, err := decodeHello(payload[1:])
		if err != nil {
			t.Fatalf("decodeHello(%q, %d): %v", tc.feed, tc.since, err)
		}
		if feed != tc.feed || since != tc.since {
			t.Fatalf("round trip (%q, %d) -> (%q, %d)", tc.feed, tc.since, feed, since)
		}
	}
}

func TestHelloRejectsGarbage(t *testing.T) {
	if _, _, err := decodeHello([]byte("GET / HTTP/1.1\r\n")); err == nil {
		t.Fatal("HTTP request accepted as hello")
	}
	// Truncations of a valid hello must error, never panic.
	full := appendHello(nil, "app", 7)[1:]
	for n := 0; n < len(full); n++ {
		if _, _, err := decodeHello(full[:n]); err == nil {
			t.Fatalf("truncated hello of %d bytes accepted", n)
		}
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	payload := appendWelcome(nil, 123456)
	cursor, err := decodeWelcome(payload[1:])
	if err != nil || cursor != 123456 {
		t.Fatalf("welcome round trip: cursor=%d err=%v", cursor, err)
	}
}

// Property: any batch survives the codec bit-exactly, including zero and
// non-monotone sequence numbers, negative tags, and NaN-free targets.
func TestBatchRoundTripProperty(t *testing.T) {
	f := func(count uint64, window uint16, missed uint32, targetSet bool,
		tmin, tmax float64, seqs []uint64, tags []int64) bool {
		if math.IsNaN(tmin) || math.IsNaN(tmax) {
			return true // Batch targets are validated upstream; NaN != NaN would fail reflect
		}
		b := observer.Batch{
			Count:  count,
			Window: int(window),
			Missed: uint64(missed),
		}
		if targetSet {
			b.TargetSet, b.TargetMin, b.TargetMax = true, tmin, tmax
		}
		for i, seq := range seqs {
			var tag int64
			if i < len(tags) {
				tag = tags[i]
			}
			b.Records = append(b.Records, heartbeat.Record{
				Seq:      seq,
				Time:     time.Unix(0, int64(seq%math.MaxInt32)).Add(time.Duration(i) * time.Millisecond),
				Tag:      tag,
				Producer: int32(i % 7),
			})
		}
		payload := appendBatch(nil, b, count+1)
		got, cursor, err := decodeBatchInto(payload[1:], nil)
		if err != nil || cursor != count+1 {
			return false
		}
		// time.Unix carries no monotonic clock, so reflect equality holds.
		if len(got.Records) == 0 {
			got.Records = nil
		}
		if len(b.Records) == 0 {
			b.Records = nil
		}
		return reflect.DeepEqual(got, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchDecodeRejectsCorruption(t *testing.T) {
	b := observer.Batch{Count: 10, Window: 5, TargetSet: true, TargetMin: 1, TargetMax: 2}
	for i := 0; i < 8; i++ {
		b.Records = append(b.Records, heartbeat.Record{Seq: uint64(i + 1), Time: time.Unix(0, int64(i)*1e6)})
	}
	payload := appendBatch(nil, b, 10)[1:]
	// Every truncation errors instead of panicking or fabricating records.
	for n := 0; n < len(payload); n++ {
		if _, _, err := decodeBatchInto(payload[:n], nil); err == nil {
			t.Fatalf("truncated batch of %d/%d bytes accepted", n, len(payload))
		}
	}
	// A record count far beyond the body size is rejected before allocation.
	huge := []byte{0}                                 // cursor 0
	huge = append(huge, 0, 0, 0, 0)                   // count, window, missed, flags
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x7f) // nrecs ≈ 34 billion
	if _, _, err := decodeBatchInto(huge, nil); err == nil {
		t.Fatal("absurd record count accepted")
	}
}

func TestFrameIO(t *testing.T) {
	buf := bytes.NewReader(framed(appendWelcome(nil, 9)))
	ftype, body, _, err := readFrameReuse(buf, nil, maxWelcomePayload)
	if err != nil || ftype != frameWelcome {
		t.Fatalf("readFrameReuse: type=%#x err=%v", ftype, err)
	}
	if cursor, err := decodeWelcome(body); err != nil || cursor != 9 {
		t.Fatalf("welcome body: cursor=%d err=%v", cursor, err)
	}
	// Oversized length prefix is rejected without allocating.
	bad := []byte{0xff, 0xff, 0xff, 0xff}
	if _, _, _, err := readFrameReuse(bytes.NewReader(bad), nil, maxFramePayload); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Empty frame is rejected.
	if _, _, _, err := readFrameReuse(bytes.NewReader([]byte{0, 0, 0, 0}), nil, maxFramePayload); err == nil {
		t.Fatal("empty frame accepted")
	}
}

// The decoder's one-byte path must be binary.Uvarint/Varint on every value it
// takes — every first byte, in the middle of a buffer and at its very end —
// and leave the rest, truncation included, to the library with the same
// outcome. The batch decoder's word path (uvarintWord) must agree with the
// library on every varint of 1 to 8 bytes and hand every longer one —
// 9 and 10 bytes, an 11-byte overlong value, a 10th-byte overflow — back
// untouched, wherever it sits within 48 bytes of the buffer's end.
func TestDecoderVarintMatchesLibrary(t *testing.T) {
	check := func(buf []byte, off int) {
		t.Helper()
		wantU, nU := binary.Uvarint(buf[off:])
		wantV, nV := binary.Varint(buf[off:])
		du := decoder{buf: buf, off: off}
		gotU := du.uvarint()
		dv := decoder{buf: buf, off: off}
		gotV := dv.varint()
		if len(buf)-off >= 8 {
			w, next := uvarintWord(buf, off)
			declined := next-off > 8
			switch {
			case declined && nU > 0 && nU <= 8:
				t.Fatalf("% x at %d: word path declined a %d-byte varint", buf, off, nU)
			case !declined && (nU <= 0 || nU > 8):
				t.Fatalf("% x at %d: word path read %d (%d bytes); library says %d bytes", buf, off, w, next-off, nU)
			case !declined && (w != wantU || next != off+nU):
				t.Fatalf("% x at %d: word path read %d, next %d; library says %d, %d bytes", buf, off, w, next, wantU, nU)
			}
		}
		if nU <= 0 {
			if du.err == nil || dv.err == nil || gotU != 0 || gotV != 0 {
				t.Fatalf("% x at %d: library rejects, decoder read %d/%d (err %v/%v)", buf, off, gotU, gotV, du.err, dv.err)
			}
			return
		}
		if du.err != nil || gotU != wantU || du.off != off+nU {
			t.Fatalf("% x at %d: uvarint = %d, off %d, err %v; library says %d, %d bytes", buf, off, gotU, du.off, du.err, wantU, nU)
		}
		if dv.err != nil || gotV != wantV || dv.off != off+nV {
			t.Fatalf("% x at %d: varint = %d, off %d, err %v; library says %d, %d bytes", buf, off, gotV, dv.off, dv.err, wantV, nV)
		}
	}
	for b := 0; b < 256; b++ {
		check([]byte{byte(b)}, 0)                // last byte of the buffer: a lone continuation byte is a truncation
		check([]byte{0xff, byte(b)}, 1)          // the same, not at offset 0
		check([]byte{byte(b), 0x01}, 0)          // with a byte to continue into
		check([]byte{byte(b), 0x81, 0x00, 7}, 0) // and a longer tail
	}
	check(nil, 0)
	check([]byte{1}, 1)

	var values [][]byte
	for n := 1; n <= binary.MaxVarintLen64; n++ {
		// The smallest and largest values of each length, and one between.
		lo := uint64(1) << (7 * (n - 1))
		if n == 1 {
			lo = 0
		}
		hi := uint64(math.MaxUint64)
		if n < binary.MaxVarintLen64 {
			hi = uint64(1)<<(7*n) - 1
		}
		for _, v := range []uint64{lo, hi, lo + (hi-lo)/3} {
			enc := binary.AppendUvarint(nil, v)
			if len(enc) != n {
				t.Fatalf("%d encodes to %d bytes, want %d", v, len(enc), n)
			}
			values = append(values, enc)
		}
	}
	values = append(values,
		[]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, // overlong: 11 bytes
		[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},       // 10th byte overflows 64 bits
	)
	for _, v := range values {
		for dist := 0; dist <= 48; dist++ {
			// dist bytes follow the value; 0x80 keeps a truncated value truncated.
			buf := append([]byte{0x01}, v...)
			for i := 0; i < dist; i++ {
				buf = append(buf, byte(0x80|i))
			}
			check(buf, 1)
			check(buf[1:], 0)
		}
	}

	// A decoder that has already failed keeps returning zero and its error.
	d := decoder{buf: []byte{5, 5}}
	d.fail()
	if d.uvarint() != 0 || d.varint() != 0 || d.off != 0 {
		t.Fatalf("failed decoder advanced: off %d", d.off)
	}
}

// Property: appendRecordDelta writes exactly the bytes of four
// binary.AppendVarint calls, onto any prefix and whatever capacity the
// destination has left.
func TestAppendRecordDeltaMatchesLibrary(t *testing.T) {
	f := func(prefix []byte, spare uint8, seq, prevSeq uint64, nanos, prevNanos, tag int64, producer int32) bool {
		dst := append(make([]byte, 0, len(prefix)+int(spare)), prefix...)
		ps, pn := prevSeq, prevNanos
		got := appendRecordDelta(dst, seq, nanos, tag, producer, &ps, &pn)
		want := append([]byte(nil), prefix...)
		want = binary.AppendVarint(want, int64(seq-prevSeq))
		want = binary.AppendVarint(want, nanos-prevNanos)
		want = binary.AppendVarint(want, tag)
		want = binary.AppendVarint(want, int64(producer))
		return bytes.Equal(got, want) && ps == seq && pn == nanos
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// The widest record: every field at its longest encoding.
	for _, spare := range []int{0, maxRecordBytes - 1, maxRecordBytes} {
		if !f(nil, uint8(spare), 1<<63, 0, math.MinInt64, 1, math.MinInt64, math.MinInt32) {
			t.Fatalf("widest record with %d spare bytes differs from the library's", spare)
		}
	}
	var ps uint64
	var pn int64
	if n := len(appendRecordDelta(nil, 1<<63, math.MinInt64, math.MinInt64, math.MinInt32, &ps, &pn)); n != maxRecordBytes {
		t.Fatalf("widest record encodes to %d bytes, maxRecordBytes is %d", n, maxRecordBytes)
	}
}

// saturatedRecords returns n records shaped like a tree_saturated relay
// hop's merged feed: dense seqs, tag = app<<40 | index with eight apps
// interleaved in 1024-record chunks, timestamps shared over runs of 64
// beats, and hop-local producer ids.
func saturatedRecords(n int) []heartbeat.Record {
	const apps, chunk = 8, 1024
	base := time.Unix(1_700_000_000, 0)
	var index [apps]int64
	recs := make([]heartbeat.Record, n)
	for i := range recs {
		app := i / chunk % apps
		index[app]++
		recs[i] = heartbeat.Record{
			Seq:      uint64(i + 1),
			Time:     base.Add(time.Duration(i/64) * 3 * time.Microsecond),
			Tag:      int64(app)<<40 | index[app],
			Producer: int32(app / 2),
		}
	}
	return recs
}

const benchBatchRecords = 16384

// Decoding into a recycled slice that holds the frame allocates nothing:
// the Relay's merge pump decodes every upstream frame this way.
func TestDecodeBatchIntoRecycledDoesNotAllocate(t *testing.T) {
	body := appendBatch(nil, observer.Batch{Records: saturatedRecords(benchBatchRecords)}, benchBatchRecords)[1:]
	recs := make([]heartbeat.Record, benchBatchRecords)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := decodeBatchInto(body, recs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("decodeBatchInto into a recycled slice: %v allocations per frame, want 0", allocs)
	}
}

// BenchmarkDecodeBatch is the decode half of a relay hop's codec: one
// 16 384-record frame into a recycled slice, per record.
func BenchmarkDecodeBatch(b *testing.B) {
	body := appendBatch(nil, observer.Batch{Records: saturatedRecords(benchBatchRecords)}, benchBatchRecords)[1:]
	recs := make([]heartbeat.Record, benchBatchRecords)
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeBatchInto(body, recs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchBatchRecords), "ns/record")
}
