package hbring

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sync"

	"repro/heartbeat"
)

// ReadTarget returns the target range advertised through in; ok is false
// when it was never set. Torn reads retry a bounded number of times: a
// writer that died between the two version bumps leaves the word odd for
// good, which must surface as an error, not a reader spinning forever.
func ReadTarget(name string, in io.ReaderAt) (min, max float64, ok bool, err error) {
	b := chunks.Get().(*chunk)
	defer chunks.Put(b)
	const maxTries = 100
	for tries := 0; tries < maxTries; tries++ {
		buf := b[:24] // version, min and max are adjacent
		if _, err := in.ReadAt(buf, offTargetVer); err != nil {
			return 0, 0, false, fmt.Errorf("%s: read target: %w", name, err)
		}
		v := byteOrder.Uint64(buf)
		if v%2 == 0 {
			min = math.Float64frombits(byteOrder.Uint64(buf[8:]))
			max = math.Float64frombits(byteOrder.Uint64(buf[16:]))
			if _, err := in.ReadAt(buf[:8], offTargetVer); err != nil {
				return 0, 0, false, fmt.Errorf("%s: read target: %w", name, err)
			}
			if byteOrder.Uint64(buf) == v {
				return min, max, v != 0, nil
			}
		}
		runtime.Gosched() // mid-update or raced with one: let the writer finish
	}
	return 0, 0, false, fmt.Errorf("%s: target read contended beyond %d retries", name, maxTries)
}

// chunk is a read buffer. Reads go through an interface, so a buffer on
// the caller's stack would escape; the pool keeps a warmed reader
// allocation-free without sharing state between concurrent callers.
type chunk [readChunk * RecordSize]byte

var chunks = sync.Pool{New: func() any { return new(chunk) }}

// Reader is the reading side of a ring. It is safe for concurrent use.
type Reader struct {
	Header
	in    io.ReaderAt
	words wordLoader // in, when it loads header words in place
	name  string
}

// wordLoader is an access method that loads a header word in place (a
// mapping's atomic load), so a reader's idle tick needs no read buffer.
type wordLoader interface {
	LoadWord(off int64) uint64
}

// Open returns a reader over the ring read through in, which holds size
// bytes. A header claiming more slots than that is corrupt or hostile, and
// is refused before its capacity sizes anything.
func Open(name string, in io.ReaderAt, size int64) (*Reader, error) {
	h, err := ReadHeader(name, in, Magic)
	if err != nil {
		return nil, err
	}
	if h.Capacity == 0 {
		return nil, fmt.Errorf("%s: zero capacity", name)
	}
	if need := HeaderSize + int64(h.Capacity)*RecordSize; size < need {
		return nil, fmt.Errorf("%s: capacity %d needs %d bytes, file has %d", name, h.Capacity, need, size)
	}
	words, _ := in.(wordLoader)
	return &Reader{Header: h, in: in, words: words, name: name}, nil
}

// heads reads cursor, reserved head and closed word together: three loads
// through a wordLoader, one 24-byte read otherwise.
func (r *Reader) heads() (cursor, reserved uint64, closed bool, err error) {
	if r.words != nil {
		return r.words.LoadWord(offCursor), r.words.LoadWord(offReserved), r.words.LoadWord(offClosed) != 0, nil
	}
	b := chunks.Get().(*chunk)
	defer chunks.Put(b)
	if _, err := r.in.ReadAt(b[:24], offCursor); err != nil {
		return 0, 0, false, fmt.Errorf("%s: read cursor: %w", r.name, err)
	}
	return byteOrder.Uint64(b[0:]), byteOrder.Uint64(b[8:]), byteOrder.Uint64(b[16:]) != 0, nil
}

// Cursor returns the highest sequence number published.
func (r *Reader) Cursor() (uint64, error) {
	cur, _, _, err := r.heads()
	return cur, err
}

// Target returns the advertised target range (see ReadTarget).
func (r *Reader) Target() (min, max float64, ok bool, err error) { return ReadTarget(r.name, r.in) }

// Last returns up to n of the most recent records, oldest to newest.
// Records overwritten or in flight during the read are omitted.
func (r *Reader) Last(n int) ([]heartbeat.Record, error) {
	if n <= 0 {
		return nil, nil
	}
	cur, _, _, err := r.heads()
	if err != nil || cur == 0 {
		return nil, err
	}
	k := min(uint64(n), cur, uint64(r.Capacity))
	return r.readRange(cur-k+1, int(k), nil)
}

// ReadSinceInto returns the retained records with sequence numbers greater
// than since, oldest to newest, plus the cursor to resume from. max > 0
// bounds the batch; the cursor then stops at the last returned record.
// Records are decoded into buf when its capacity suffices. A caller detects
// loss as cursor-since exceeding len(records). A cursor behind since (a
// recreated ring) is returned as is, so the caller resynchronizes; once a
// closed ring has delivered everything, the error is io.EOF.
func (r *Reader) ReadSinceInto(since uint64, max int, buf []heartbeat.Record) ([]heartbeat.Record, uint64, error) {
	cur, _, closed, err := r.heads()
	if err != nil {
		return nil, since, err
	}
	if cur == since && closed {
		// The closed word is stored after the final cursor: re-read it so
		// a close racing this read cannot hide the last records.
		if cur, _, _, err = r.heads(); err != nil {
			return nil, since, err
		}
		if cur == since {
			return nil, cur, io.EOF
		}
	}
	if cur <= since {
		return nil, cur, nil
	}
	first := since + 1
	if capacity := uint64(r.Capacity); cur-since > capacity {
		first = cur - capacity + 1 // lapped: the older records are gone
	}
	if max > 0 && cur-first+1 > uint64(max) {
		cur = first + uint64(max) - 1
	}
	recs, err := r.readRange(first, int(cur-first+1), buf)
	if err != nil {
		return nil, since, err
	}
	return recs, cur, nil
}

// readRange reads records [first, first+n) into buf (reallocated when too
// small), keeping only those the protocol vouches for.
func (r *Reader) readRange(first uint64, n int, buf []heartbeat.Record) ([]heartbeat.Record, error) {
	out := buf[:0]
	if cap(out) < n {
		out = make([]heartbeat.Record, 0, n)
	}
	b := chunks.Get().(*chunk)
	defer chunks.Put(b)
	capacity := uint64(r.Capacity)
	for want, end := first, first+uint64(n); want < end; {
		// A chunk stops at the ring's last slot; the next one wraps.
		k := min(end-want, capacity-(want-1)%capacity, readChunk)
		raw := b[:k*RecordSize]
		if _, err := r.in.ReadAt(raw, slotOffset(want, capacity)); err != nil {
			return nil, fmt.Errorf("%s: read records: %w", r.name, err)
		}
		for ; len(raw) > 0; raw, want = raw[RecordSize:], want+1 {
			// A mismatch is a slot not yet written, lapped, or torn.
			if byteOrder.Uint64(raw[recOffSeq:]) == want {
				out = append(out, decode(want, (*[RecordSize]byte)(raw)))
			}
		}
	}
	// Re-read how far the writer has got. It may be mid-write of any slot
	// up to the reserved head, and of cursor+1 in any case, so a record one
	// lap below either is suspect and dropped. Those are the oldest
	// records read, a prefix of out.
	cursor, reserved, _, err := r.heads()
	if err != nil {
		return nil, err
	}
	inFlight := max(cursor+1, reserved)
	drop := 0
	for drop < len(out) && out[drop].Seq+capacity <= inFlight {
		drop++
	}
	if drop > 0 {
		out = out[:copy(out, out[drop:])]
	}
	return out, nil
}

// Rate computes the average heart rate over the last window records;
// window <= 0 uses the header's window. ok is false with fewer than two
// readable records.
func (r *Reader) Rate(window int) (perSec float64, ok bool, err error) {
	if window <= 0 {
		window = int(r.Window)
	}
	recs, err := r.Last(window)
	if err != nil {
		return 0, false, err
	}
	rate, ok := heartbeat.RateOf(recs)
	return rate.PerSec, ok, nil
}

// ReadLog reads the log behind f: its record count, and up to n of its
// records from index from on, decoded into buf (reallocated when too
// small). The header's count word is input from outside the program and,
// unlike a ring's capacity, cannot be bounded once at open, because a log
// grows: every call clamps it to the records the file is long enough to
// hold, so no read is ever sized from (or pointed past the end by) a
// corrupt or hostile count.
func ReadLog(name string, f interface {
	io.ReaderAt
	Stat() (os.FileInfo, error)
}, from uint64, n int, buf []heartbeat.Record) ([]heartbeat.Record, uint64, error) {
	b := chunks.Get().(*chunk)
	defer chunks.Put(b)
	if _, err := f.ReadAt(b[:8], offCursor); err != nil {
		return nil, 0, fmt.Errorf("%s: read count: %w", name, err)
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: stat log: %w", name, err)
	}
	var held uint64
	if size := fi.Size(); size > HeaderSize {
		held = uint64(size-HeaderSize) / RecordSize
	}
	count := min(byteOrder.Uint64(b[:]), held)
	if from >= count || n <= 0 {
		return nil, count, nil
	}
	n = int(min(uint64(n), count-from))
	out := buf[:0]
	if cap(out) < n {
		out = make([]heartbeat.Record, 0, n)
	}
	for len(out) < n {
		raw := b[:min(n-len(out), readChunk)*RecordSize]
		if _, err := f.ReadAt(raw, HeaderSize+int64(from+uint64(len(out)))*RecordSize); err != nil {
			return nil, count, fmt.Errorf("%s: read log records: %w", name, err)
		}
		for ; len(raw) > 0; raw = raw[RecordSize:] {
			out = append(out, decode(byteOrder.Uint64(raw[recOffSeq:]), (*[RecordSize]byte)(raw)))
		}
	}
	return out, count, nil
}
