package hbring

import (
	"fmt"
	"io"
	"math"
	"os"

	"repro/heartbeat"
)

// Writer is the writing side of a ring or log. The access method's lock
// guards it; Out is the seam tests count and fail writes through.
type Writer struct {
	Out       io.WriterAt
	name      string
	capacity  uint64
	cursor    uint64 // highest sequence number published; a log's count
	reserved  uint64 // reserved head as last stored
	targetVer uint64
	scratch   []byte  // encode's buffer, at most maxRun records
	word      [8]byte // putWord's buffer
}

// Create writes the static header of a file whose magic is magic through
// out, which the caller has sized and checked (see Size), and returns its
// writer. A log passes capacity 0.
func Create(name string, out io.WriterAt, magic string, window, capacity int) (*Writer, error) {
	buf := make([]byte, HeaderSize)
	copy(buf, magic)
	byteOrder.PutUint32(buf[offVersion:], Version)
	byteOrder.PutUint32(buf[offRecordSize:], RecordSize)
	byteOrder.PutUint32(buf[offCapacity:], uint32(capacity))
	byteOrder.PutUint32(buf[offWindow:], uint32(window))
	byteOrder.PutUint64(buf[offPID:], uint64(os.Getpid()))
	if _, err := out.WriteAt(buf, 0); err != nil {
		return nil, fmt.Errorf("%s: write header: %w", name, err)
	}
	return &Writer{Out: out, name: name, capacity: uint64(capacity)}, nil
}

// putWord stores one 8-byte header word.
func (w *Writer) putWord(off int64, v uint64) error {
	byteOrder.PutUint64(w.word[:], v)
	_, err := w.Out.WriteAt(w.word[:], off)
	return err
}

// Cursor returns the highest sequence number published (a log's count).
func (w *Writer) Cursor() uint64 { return w.cursor }

// WriteRecords publishes a ring batch: the batch is validated as a whole,
// the reserved head is stored when the batch reaches beyond cursor+1, each
// run is one write, and the cursor is stored once at the end. An in-order
// single record is 2 writes (record, cursor); an in-order 1024-record batch
// is 3 (reserved head, run, cursor), 4 when it wraps. Records out of order
// or with gaps still land; they only make the runs shorter. A late record,
// behind the published cursor, is 2 (body, then sequence word).
func (w *Writer) WriteRecords(recs []heartbeat.Record) error {
	var top uint64
	for _, r := range recs {
		if r.Seq == 0 {
			return w.errZeroSeq()
		}
		top = max(top, r.Seq)
	}
	// Readers distrust only the slot of cursor+1 unless told otherwise:
	// announce how far this call reaches before any slot changes.
	if top > w.cursor+1 && top > w.reserved {
		if err := w.putWord(offReserved, top); err != nil {
			// Readers were not warned, so no slot may be touched.
			return fmt.Errorf("%s: write reserved head: %w", w.name, err)
		}
		w.reserved = top
	}
	// An I/O failure loses that run but keeps writing the rest — the batch
	// is the aggregator's only delivery of these records. The first error
	// is reported; the cursor advances over whatever landed.
	var firstErr error
	stale := max(w.cursor, top)
	cursor := w.cursor
	for len(recs) > 0 {
		first := recs[0].Seq
		if first+w.capacity <= stale {
			// A full lap behind: its slot holds, or will hold, a newer
			// record that a reader may be copying. Readers count it missed.
			recs = recs[1:]
			continue
		}
		off := slotOffset(first, w.capacity)
		var err error
		if first <= w.cursor {
			// Late, behind the published cursor: a reader may want it and
			// copy its slot while it lands. The body goes first and the
			// sequence word last, so until the record is whole its slot
			// keeps the old occupant's number and is passed over.
			w.scratch = encode(w.scratch, recs[:1])
			recs = recs[1:]
			if _, err = w.Out.WriteAt(w.scratch[recOffTime:], off+recOffTime); err == nil {
				err = w.putWord(off, first)
			}
		} else {
			// The run ends at a sequence break, at the ring's last slot, or
			// at the encode buffer's size.
			room := min(w.capacity-(first-1)%w.capacity, maxRun)
			n := 1
			for n < len(recs) && uint64(n) < room && recs[n].Seq == first+uint64(n) {
				n++
			}
			w.scratch = encode(w.scratch, recs[:n])
			recs = recs[n:]
			if _, err = w.Out.WriteAt(w.scratch, off); err == nil {
				cursor = max(cursor, first+uint64(n)-1)
			}
		}
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: write records: %w", w.name, err)
		}
	}
	if err := w.publish(cursor); firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Append appends a log batch in arrival order: one write per maxRun records
// and one of the count. A failed write loses its records and is reported;
// the next write lands where it would have, so the log keeps no hole.
func (w *Writer) Append(recs []heartbeat.Record) error {
	for _, r := range recs {
		if r.Seq == 0 {
			return w.errZeroSeq()
		}
	}
	var firstErr error
	count := w.cursor
	for len(recs) > 0 {
		n := min(len(recs), maxRun)
		w.scratch = encode(w.scratch, recs[:n])
		recs = recs[n:]
		if _, err := w.Out.WriteAt(w.scratch, HeaderSize+int64(count)*RecordSize); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: append records: %w", w.name, err)
			}
			continue
		}
		count += uint64(n)
	}
	if err := w.publish(count); firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// publish stores a cursor that moved forward. One that failed to reach the
// file is not remembered either, so the next call starts from what readers
// see.
func (w *Writer) publish(cursor uint64) error {
	if cursor <= w.cursor {
		return nil
	}
	if err := w.putWord(offCursor, cursor); err != nil {
		return fmt.Errorf("%s: write cursor: %w", w.name, err)
	}
	w.cursor = cursor
	return nil
}

// WriteTarget publishes the target range under its version word.
func (w *Writer) WriteTarget(min, max float64) error {
	for _, word := range []struct {
		off int64
		v   uint64
	}{
		{offTargetVer, w.targetVer + 1}, // odd: update in progress
		{offTargetMin, math.Float64bits(min)},
		{offTargetMax, math.Float64bits(max)},
		{offTargetVer, w.targetVer + 2}, // even: stable
	} {
		if err := w.putWord(word.off, word.v); err != nil {
			return fmt.Errorf("%s: write target: %w", w.name, err)
		}
	}
	w.targetVer += 2
	return nil
}

func (w *Writer) errZeroSeq() error {
	return fmt.Errorf("%s: record with zero sequence number", w.name)
}

// Close marks the ring ended: readers drain what was published and then
// see io.EOF. The closed word is stored after the final cursor.
func (w *Writer) Close() error { return w.putWord(offClosed, 1) }
