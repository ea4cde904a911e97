package hbnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/heartbeat"
	"repro/observer"
)

// The wire protocol is length-prefixed binary frames over a byte stream:
//
//	frame  = uint32 big-endian payload length | payload
//	payload = frame type byte | type-specific body
//
// A connection carries exactly one hello (client to server), one welcome
// or error in response, and then a one-way sequence of batch frames until
// an eof or error frame ends the stream. Integers are varints; record
// sequence numbers and timestamps are delta-encoded within a batch, so a
// steady heartbeat stream costs a few bytes per record.
const (
	frameHello   = 0x01 // client → server: magic, version, resume cursor, feed name
	frameWelcome = 0x02 // server → client: accepted; echoes the hello's cursor as an integrity check
	frameBatch   = 0x03 // server → client: one observer.Batch plus the new cursor
	frameEOF     = 0x04 // server → client: the feed ended cleanly (producer closed)
	frameError   = 0x05 // server → client: failure; body = permanence flag byte + message
	frameRollup  = 0x06 // server → client: one RollupBatch plus the new emission cursor
)

const (
	// protocolMagic opens every hello so a server can reject a stray
	// connection (a port scan, an HTTP request) before parsing further.
	protocolMagic   = 0x48424e31 // "HBN1"
	protocolVersion = 1

	// maxFramePayload bounds a single frame: far above any sane batch,
	// low enough that a garbage length prefix cannot balloon memory.
	maxFramePayload = 1 << 24
	// maxRecordBytes is the most one encoded record costs: three 64-bit
	// zig-zag varints (seq delta, time delta, tag) and an int32's (producer).
	maxRecordBytes = binary.MaxVarintLen64*3 + binary.MaxVarintLen32
	// maxRecordsPerFrame caps how many records the server packs into one
	// batch frame; at up to maxRecordBytes per record, the cap keeps any
	// frame under ~9 MiB, safely inside maxFramePayload. Oversized batches
	// (a full-history replay) are split across frames.
	maxRecordsPerFrame = 1 << 18
	// maxFeedName bounds the hello's feed-name field.
	maxFeedName = 1024
)

var errFrameTooLarge = fmt.Errorf("hbnet: frame exceeds %d bytes", maxFramePayload)

// framed returns payload behind its length prefix: one frame, sent in a
// single Write so frames are never interleaved mid-frame.
func framed(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(payload)), uint32(len(payload))), payload...)
}

// readFrameReuse reads one frame and returns its type and body (payload
// minus the type byte). It refuses a payload over max before sizing
// anything, and reads into buf's storage (grown as needed, and returned
// for the next call). The body aliases it until then; every decode copies
// what it keeps, so a steady-state reader allocates nothing per frame.
func readFrameReuse(r io.Reader, buf []byte, max uint32) (ftype byte, body, next []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, buf, fmt.Errorf("hbnet: empty frame")
	}
	if n > max {
		return 0, nil, buf, fmt.Errorf("hbnet: frame of %d bytes exceeds %d", n, max)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, buf, fmt.Errorf("hbnet: short frame: %w", err)
	}
	return payload[0], payload[1:], buf, nil
}

// appendHello encodes the subscriber handshake.
func appendHello(dst []byte, feed string, since uint64) []byte {
	dst = append(dst, frameHello)
	dst = binary.BigEndian.AppendUint32(dst, protocolMagic)
	dst = append(dst, protocolVersion)
	dst = binary.AppendUvarint(dst, since)
	dst = binary.AppendUvarint(dst, uint64(len(feed)))
	return append(dst, feed...)
}

func decodeHello(body []byte) (feed string, since uint64, err error) {
	d := decoder{buf: body}
	if magic := d.uint32(); magic != protocolMagic {
		return "", 0, fmt.Errorf("hbnet: bad magic %#x (not a heartbeat subscriber)", magic)
	}
	if v := d.byte(); v != protocolVersion {
		return "", 0, fmt.Errorf("hbnet: protocol version %d, want %d", v, protocolVersion)
	}
	since = d.uvarint()
	n := d.uvarint()
	if n > maxFeedName {
		return "", 0, fmt.Errorf("hbnet: feed name of %d bytes exceeds %d", n, maxFeedName)
	}
	name := d.bytes(int(n))
	if d.err != nil {
		return "", 0, fmt.Errorf("hbnet: truncated hello: %w", d.err)
	}
	return string(name), since, nil
}

func appendWelcome(dst []byte, cursor uint64) []byte {
	dst = append(dst, frameWelcome)
	dst = append(dst, protocolVersion)
	return binary.AppendUvarint(dst, cursor)
}

func decodeWelcome(body []byte) (cursor uint64, err error) {
	d := decoder{buf: body}
	if v := d.byte(); v != protocolVersion {
		return 0, fmt.Errorf("hbnet: protocol version %d, want %d", v, protocolVersion)
	}
	cursor = d.uvarint()
	if d.err != nil {
		return 0, fmt.Errorf("hbnet: truncated welcome: %w", d.err)
	}
	return cursor, nil
}

// appendError encodes a failure report. permanent marks refusals that
// retrying cannot cure (bad handshake, unknown feed) as opposed to
// failures that may heal (a feed file mid-recreation): the client stops
// reconnecting only for the former.
func appendError(dst []byte, msg string, permanent bool) []byte {
	dst = append(dst, frameError)
	if permanent {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	return append(dst, msg...)
}

func decodeError(body []byte) (msg string, permanent bool) {
	if len(body) == 0 {
		return "unspecified server error", false
	}
	return string(body[1:]), body[0] == 1
}

const batchFlagTargetSet = 1 << 0

// appendBatch encodes one batch and the server-side cursor after it. The
// per-record sequence numbers and timestamps are signed deltas from their
// predecessor (the first record's from zero), which run-length friendly
// streams compress to a couple of bytes per record while still encoding
// foreign streams with zero or non-monotone sequence numbers faithfully.
func appendBatch(dst []byte, b observer.Batch, cursor uint64) []byte {
	dst = appendBatchMeta(dst, b, cursor, len(b.Records))
	var prevSeq uint64
	var prevNanos int64
	for _, r := range b.Records {
		dst = appendRecordDelta(dst, r.Seq, r.Time.UnixNano(), r.Tag, r.Producer, &prevSeq, &prevNanos)
	}
	return dst
}

// appendBatchMeta encodes a batch frame's fixed fields and the record
// count; the caller appends exactly nrecords records with
// appendRecordDelta. Split out so the replay ring's encode-once fan-out
// (frameSince) shares the exact wire format with appendBatch instead of
// duplicating it.
func appendBatchMeta(dst []byte, b observer.Batch, cursor uint64, nrecords int) []byte {
	dst = append(dst, frameBatch)
	dst = binary.AppendUvarint(dst, cursor)
	dst = binary.AppendUvarint(dst, b.Count)
	dst = binary.AppendUvarint(dst, uint64(b.Window))
	dst = binary.AppendUvarint(dst, b.Missed)
	var flags byte
	if b.TargetSet {
		flags |= batchFlagTargetSet
	}
	dst = append(dst, flags)
	if b.TargetSet {
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(b.TargetMin))
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(b.TargetMax))
	}
	return binary.AppendUvarint(dst, uint64(nrecords))
}

// appendRecordDelta encodes one record, given by its wire fields, as
// deltas from its predecessor, threading the predecessor state through
// prevSeq/prevNanos. It takes fields rather than a heartbeat.Record so the
// replay ring, which keeps records without their time.Time, encodes
// straight from its storage through the same code as appendBatch. One
// headroom check covers all four varints, which are then written by index.
func appendRecordDelta(dst []byte, seq uint64, nanos, tag int64, producer int32, prevSeq *uint64, prevNanos *int64) []byte {
	dst = slices.Grow(dst, maxRecordBytes)
	n := len(dst)
	rec := dst[n : n+maxRecordBytes]
	i := putZigzag(rec, 0, int64(seq-*prevSeq))
	i = putZigzag(rec, i, nanos-*prevNanos)
	i = putZigzag(rec, i, tag)
	i = putZigzag(rec, i, int64(producer))
	*prevSeq, *prevNanos = seq, nanos
	return dst[:n+i]
}

// putZigzag writes v as a zig-zag varint at rec[i] and returns the index
// after it.
func putZigzag(rec []byte, i int, v int64) int {
	x := uint64(v<<1) ^ uint64(v>>63)
	for x >= 0x80 {
		rec[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	rec[i] = byte(x)
	return i + 1
}

// decodeBatchInto decodes a batch frame's body and the cursor after it
// into recs (which may be nil or a recycled slice): with a pooled slice
// the steady-state decode path allocates nothing, which is what
// Client.Recycle buys the Relay's merge pump. recs is used only when it
// already holds the whole frame; otherwise the records go to a fresh slice
// of exactly the frame's length, so no decode re-grows a slice (copying
// it, and overshooting the capacity a free list would then keep). The
// returned batch's Records alias the storage they were decoded into.
//
// While a worst-case record and one more 8-byte load still fit in the
// body, so no load can run past it, a one-byte field is read directly and
// a longer one from a single 8-byte load (uvarintWord). A record with a
// field longer than 8 bytes, and every record nearer the end, goes through
// the careful decoder, which rejects truncated, overlong and overflowing
// varints exactly as binary.Uvarint does.
func decodeBatchInto(body []byte, recs []heartbeat.Record) (b observer.Batch, cursor uint64, err error) {
	d := decoder{buf: body}
	cursor = d.uvarint()
	b.Count = d.uvarint()
	b.Window = int(d.uvarint())
	b.Missed = d.uvarint()
	flags := d.byte()
	if flags&batchFlagTargetSet != 0 {
		b.TargetSet = true
		b.TargetMin = math.Float64frombits(d.uint64())
		b.TargetMax = math.Float64frombits(d.uint64())
	}
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)-d.off)/4+1 {
		// Each record costs at least 4 bytes on the wire; a count beyond
		// that is a corrupt frame, caught before allocating for it.
		return observer.Batch{}, 0, fmt.Errorf("hbnet: batch claims %d records in %d bytes", n, len(body))
	}
	if n > 0 && d.err == nil {
		if uint64(cap(recs)) >= n {
			b.Records = recs[:n]
		} else {
			b.Records = make([]heartbeat.Record, n)
		}
		var prevSeq uint64
		var prevNanos int64
		k := 0
		off := d.off
		for fastEnd := len(body) - (maxRecordBytes + 8); k < len(b.Records) && off <= fastEnd; k++ {
			useq, o1 := uint64(body[off]), off+1
			if useq >= 0x80 {
				useq, o1 = uvarintWord(body, off)
			}
			unanos, o2 := uint64(body[o1]), o1+1
			if unanos >= 0x80 {
				unanos, o2 = uvarintWord(body, o1)
			}
			utag, o3 := uint64(body[o2]), o2+1
			if utag >= 0x80 {
				utag, o3 = uvarintWord(body, o2)
			}
			uprod, o4 := uint64(body[o3]), o3+1
			if uprod >= 0x80 {
				uprod, o4 = uvarintWord(body, o3)
			}
			if o1-off > 8 || o2-o1 > 8 || o3-o2 > 8 || o4-o3 > 8 {
				// A field longer than 8 bytes: decode the record carefully.
				d.off = off
				b.Records[k] = d.record(&prevSeq, &prevNanos)
				if off = d.off; d.err != nil {
					break
				}
				continue
			}
			seq := prevSeq + uint64(unzigzag(useq))
			nanos := prevNanos + unzigzag(unanos)
			b.Records[k] = heartbeat.Record{
				Seq:      seq,
				Time:     time.Unix(0, nanos),
				Tag:      unzigzag(utag),
				Producer: int32(unzigzag(uprod)),
			}
			prevSeq, prevNanos, off = seq, nanos, o4
		}
		d.off = off
		for ; k < len(b.Records) && d.err == nil; k++ {
			b.Records[k] = d.record(&prevSeq, &prevNanos)
		}
	}
	if d.err != nil {
		return observer.Batch{}, 0, fmt.Errorf("hbnet: truncated batch: %w", d.err)
	}
	return b, cursor, nil
}

// record decodes one record carefully, as deltas from its predecessor.
func (d *decoder) record(prevSeq *uint64, prevNanos *int64) heartbeat.Record {
	seq := *prevSeq + uint64(d.varint())
	nanos := *prevNanos + d.varint()
	tag := d.varint()
	producer := d.varint()
	*prevSeq, *prevNanos = seq, nanos
	return heartbeat.Record{Seq: seq, Time: time.Unix(0, nanos), Tag: tag, Producer: int32(producer)}
}

// uvarintWord decodes the unsigned varint at buf[off], which must have 8
// readable bytes, from one little-endian 8-byte load: the first byte
// without its continuation bit ends the varint, and the seven-bit groups
// up to it are gathered by shifts and masks. It returns the value and the
// offset after it. A varint longer than the load, which only the careful
// decoder may judge, returns off+9 (and a meaningless value).
func uvarintWord(buf []byte, off int) (uint64, int) {
	w := binary.LittleEndian.Uint64(buf[off:])
	size := uint(bits.TrailingZeros64(^w&0x8080808080808080)) + 1 // bits through the last byte; 65 if none
	w &= (^uint64(0) >> (64 - size)) & 0x7f7f7f7f7f7f7f7f
	w = w&0x007f007f007f007f | (w&0x7f007f007f007f00)>>1
	w = w&0x00003fff00003fff | (w&0x3fff00003fff0000)>>2
	w = w&0x000000000fffffff | (w&0x0fffffff00000000)>>4
	return w, off + int(size+7)/8
}

const rollupFlagRateOK = 1 << 0

// appendRollups encodes one rollup delivery: the emission cursor after it,
// lapped emissions, and the rollups themselves. Window start times are
// delta-encoded from the previous rollup's (relays flush every app at the
// same instant, so consecutive rollups usually share a start and the delta
// is one zero byte); each end is a delta from its own start.
func appendRollups(dst []byte, b RollupBatch) []byte {
	dst = append(dst, frameRollup)
	dst = binary.AppendUvarint(dst, b.Cursor)
	dst = binary.AppendUvarint(dst, b.Missed)
	dst = binary.AppendUvarint(dst, uint64(len(b.Rollups)))
	var prevStart int64
	for _, r := range b.Rollups {
		dst = binary.AppendUvarint(dst, uint64(len(r.App)))
		dst = append(dst, r.App...)
		start := r.Start.UnixNano()
		dst = binary.AppendVarint(dst, start-prevStart)
		dst = binary.AppendVarint(dst, r.End.UnixNano()-start)
		prevStart = start
		dst = binary.AppendUvarint(dst, r.Records)
		dst = binary.AppendUvarint(dst, r.Missed)
		dst = binary.AppendUvarint(dst, r.Count)
		var flags byte
		if r.RateOK {
			flags |= rollupFlagRateOK
		}
		dst = append(dst, flags)
		if r.RateOK {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Rate.PerSec))
			dst = binary.AppendUvarint(dst, uint64(r.Rate.Beats))
			dst = binary.AppendVarint(dst, int64(r.Rate.Span))
		}
		dst = binary.AppendUvarint(dst, r.Rate.FirstSeq)
		dst = binary.AppendUvarint(dst, r.Rate.LastSeq)
		dst = binary.AppendVarint(dst, int64(r.MinInterval))
		dst = binary.AppendVarint(dst, int64(r.MaxInterval))
		dst = binary.AppendVarint(dst, int64(r.MeanInterval))
	}
	return dst
}

func decodeRollups(body []byte) (RollupBatch, error) {
	d := decoder{buf: body}
	var b RollupBatch
	b.Cursor = d.uvarint()
	b.Missed = d.uvarint()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)-d.off)/8+1 {
		// Each rollup costs at least 8 bytes on the wire; a count beyond
		// that is a corrupt frame, caught before allocating for it.
		return RollupBatch{}, fmt.Errorf("hbnet: rollup frame claims %d rollups in %d bytes", n, len(body))
	}
	if n > 0 && d.err == nil {
		b.Rollups = make([]observer.Rollup, 0, n)
		var prevStart int64
		for i := uint64(0); i < n; i++ {
			var r observer.Rollup
			nameLen := d.uvarint()
			if nameLen > maxFeedName {
				return RollupBatch{}, fmt.Errorf("hbnet: rollup app name of %d bytes exceeds %d", nameLen, maxFeedName)
			}
			r.App = string(d.bytes(int(nameLen)))
			start := prevStart + d.varint()
			r.Start = time.Unix(0, start)
			r.End = time.Unix(0, start+d.varint())
			prevStart = start
			r.Records = d.uvarint()
			r.Missed = d.uvarint()
			r.Count = d.uvarint()
			flags := d.byte()
			if flags&rollupFlagRateOK != 0 {
				r.RateOK = true
				r.Rate.PerSec = math.Float64frombits(d.uint64())
				r.Rate.Beats = int(d.uvarint())
				r.Rate.Span = time.Duration(d.varint())
			}
			r.Rate.FirstSeq = d.uvarint()
			r.Rate.LastSeq = d.uvarint()
			r.MinInterval = time.Duration(d.varint())
			r.MaxInterval = time.Duration(d.varint())
			r.MeanInterval = time.Duration(d.varint())
			if d.err != nil {
				break
			}
			b.Rollups = append(b.Rollups, r)
		}
	}
	if d.err != nil {
		return RollupBatch{}, fmt.Errorf("hbnet: truncated rollup frame: %w", d.err)
	}
	return b, nil
}

// decoder is a cursor over a frame body that records the first failure
// instead of forcing an error check per field.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = io.ErrUnexpectedEOF
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.buf) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) uint32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) uint64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// uvarint reads one unsigned varint. Most of what a record batch carries —
// sequence delta, time delta, producer — is a single byte, so that case is
// decoded here and everything else (longer values, truncation, a decoder
// that has already failed) goes to the library.
func (d *decoder) uvarint() uint64 {
	if d.err == nil && d.off < len(d.buf) && d.buf[d.off] < 0x80 {
		d.off++
		return uint64(d.buf[d.off-1])
	}
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// varint reads one signed varint: zigzag over uvarint, as binary.Varint is.
func (d *decoder) varint() int64 { return unzigzag(d.uvarint()) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
