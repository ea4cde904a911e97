package heartbeat

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ring"
)

// store is the global heartbeat history. Implementations retain the most
// recent capacity records and allow concurrent producers and observers.
type store interface {
	// append claims the next sequence number and stores a record.
	append(unixNanos int64, tag int64, producer int32) (seq uint64)
	// appendRun claims len(tags) consecutive sequence numbers at once and
	// stores one record per tag under them, all carrying the same timestamp
	// and producer — the shape in which the aggregator merges a shard. It
	// returns the first sequence number claimed.
	appendRun(unixNanos int64, producer int32, tags []int64) (first uint64)
	// total returns the number of records ever appended.
	total() uint64
	// skip claims n sequence numbers without materializing records: the
	// aggregator's accounting for merged records that a bounded history
	// would discard on arrival. Skipped sequence numbers read back as
	// absent.
	skip(n uint64)
	// capacity returns the number of retained records.
	capacity() int
	// last returns up to n of the most recent records, oldest to newest.
	// Records that were overwritten or are mid-write are skipped.
	last(n int) []Record
	// readSince returns the retained records with sequence numbers greater
	// than since, oldest to newest, plus the cursor to resume from. The
	// cursor normally equals the store total; it stops short of a record
	// that is still mid-write so the next readSince retries it, whereas
	// overwritten (or skipped) records are passed over for good — the
	// caller detects that loss as cursor-since exceeding len(records).
	// buf, when its capacity suffices, becomes the backing storage of the
	// returned slice (pass nil for a fresh allocation) — the reuse hook
	// that keeps a hot subscriber's poll loop allocation-free.
	readSince(since uint64, buf []Record) ([]Record, uint64)
}

// lockfreeStore is a ring of slots validated against the claim counter.
// Producers never block, and observers never coordinate with them — the
// paper's requirement that external software (or hardware) read the heartbeat
// buffers beside the application. The protocol, per slot:
//
//   - A writer first claims its sequence numbers in next (one atomic add, for
//     one record or for a whole run), and only then stores a claimed record's
//     fields — time, tag, prod — and last of all the slot's seq, which
//     publishes it.
//   - A reader of record seq checks the slot's seq, copies the fields, and
//     then re-reads next: the record is good iff next < seq + capacity. The
//     only writer that can disturb the slot is the one lapping it, and that
//     writer claimed seq + capacity before it stored a field; if the claim is
//     not visible after the copy, none of its stores preceded the copy.
//
// So a torn read is detected and the slot skipped rather than returned
// corrupt, with no "mid-write" mark on the slot: claimed-but-unpublished is
// told from lapped by next alone (readSince retries the first, gives up the
// second).
type lockfreeStore struct {
	slots []lfSlot
	next  atomic.Uint64 // last claimed sequence number
}

type lfSlot struct {
	// seq is the sequence number of the record stable in this slot; 0
	// means never written.
	seq  atomic.Uint64
	time atomic.Int64
	tag  atomic.Int64
	prod atomic.Int32
}

func newLockfreeStore(capacity int) *lockfreeStore {
	return &lockfreeStore{slots: make([]lfSlot, capacity)}
}

// claim reserves n consecutive sequence numbers and returns the first.
func (s *lockfreeStore) claim(n uint64) (first uint64) { return s.next.Add(n) - n + 1 }

// put stores and publishes the record of a claimed sequence number.
func (s *lockfreeStore) put(seq uint64, unixNanos, tag int64, producer int32) {
	sl := &s.slots[(seq-1)%uint64(len(s.slots))]
	sl.time.Store(unixNanos)
	sl.tag.Store(tag)
	sl.prod.Store(producer)
	sl.seq.Store(seq)
}

func (s *lockfreeStore) append(unixNanos int64, tag int64, producer int32) uint64 {
	seq := s.claim(1)
	s.put(seq, unixNanos, tag, producer)
	return seq
}

func (s *lockfreeStore) appendRun(unixNanos int64, producer int32, tags []int64) uint64 {
	first := s.claim(uint64(len(tags)))
	for i, tag := range tags {
		s.put(first+uint64(i), unixNanos, tag, producer)
	}
	return first
}

func (s *lockfreeStore) total() uint64 { return s.next.Load() }
func (s *lockfreeStore) capacity() int { return len(s.slots) }

// skip advances the sequence counter; the skipped slots keep their stale
// seq, so reads of the skipped sequence numbers fail like reads of
// overwritten records.
func (s *lockfreeStore) skip(n uint64) { s.next.Add(n) }

// read returns the record with the given sequence number if it is published
// and its slot has not been claimed by a later lap.
func (s *lockfreeStore) read(seq uint64) (Record, bool) {
	if seq == 0 {
		return Record{}, false
	}
	sl := &s.slots[(seq-1)%uint64(len(s.slots))]
	if sl.seq.Load() != seq {
		return Record{}, false // not yet published, or overwritten
	}
	t := sl.time.Load()
	tag := sl.tag.Load()
	p := sl.prod.Load()
	if s.next.Load() >= seq+uint64(len(s.slots)) {
		return Record{}, false // the lapping writer may have begun
	}
	return Record{Seq: seq, Time: time.Unix(0, t), Tag: tag, Producer: p}, true
}

func (s *lockfreeStore) readSince(since uint64, buf []Record) ([]Record, uint64) {
	cur := s.next.Load()
	if cur <= since {
		return nil, cur
	}
	from := since + 1
	if cur-since > uint64(len(s.slots)) {
		from = cur - uint64(len(s.slots)) + 1
	}
	out := buf[:0]
	if uint64(cap(out)) < cur-from+1 {
		out = make([]Record, 0, cur-from+1)
	}
	for seq := from; seq <= cur; seq++ {
		r, ok := s.read(seq)
		if ok {
			out = append(out, r)
			continue
		}
		if s.next.Load() >= seq+uint64(len(s.slots)) {
			continue // lapped (or skipped) while scanning: lost for good
		}
		// Claimed by a concurrent producer but not published yet: stop
		// here so the record is retried next call rather than reported
		// lost. The producer's wake fires after its append completes,
		// so a waiting subscriber is re-notified once the record is
		// stable.
		return out, seq - 1
	}
	return out, cur
}

func (s *lockfreeStore) last(n int) []Record {
	if n <= 0 {
		return nil
	}
	cur := s.next.Load()
	if cur == 0 {
		return nil
	}
	if uint64(n) > cur {
		n = int(cur)
	}
	if n > len(s.slots) {
		n = len(s.slots)
	}
	out := make([]Record, 0, n)
	for seq := cur - uint64(n) + 1; seq <= cur; seq++ {
		if r, ok := s.read(seq); ok {
			out = append(out, r)
		}
	}
	return out
}

// lockedStore is the straightforward mutex-guarded variant, matching the
// paper's reference implementation ("a mutex is used to guarantee mutual
// exclusion and ordering"). Kept for the lock-free-vs-locked ablation
// benchmark and as a simple correctness oracle in tests.
type lockedStore struct {
	mu  sync.Mutex
	buf *ring.Buffer[Record]
}

func newLockedStore(capacity int) *lockedStore {
	return &lockedStore{buf: ring.New[Record](capacity)}
}

func (s *lockedStore) append(unixNanos int64, tag int64, producer int32) uint64 {
	return s.appendRun(unixNanos, producer, []int64{tag})
}

func (s *lockedStore) appendRun(unixNanos int64, producer int32, tags []int64) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.buf.Total() + 1
	tm := time.Unix(0, unixNanos)
	for i, tag := range tags {
		s.buf.Push(Record{Seq: first + uint64(i), Time: tm, Tag: tag, Producer: producer})
	}
	return first
}

func (s *lockedStore) total() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Total()
}

func (s *lockedStore) skip(n uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buf.Skip(n)
}

func (s *lockedStore) capacity() int { return s.buf.Cap() }

func (s *lockedStore) readSince(since uint64, buf []Record) ([]Record, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.buf.Total()
	if cur <= since {
		return nil, cur
	}
	n := cur - since
	if n > uint64(s.buf.Cap()) {
		n = uint64(s.buf.Cap())
	}
	recs := s.buf.Last(int(n))
	out := buf[:0]
	if cap(out) < len(recs) {
		out = make([]Record, 0, len(recs))
	}
	for _, r := range recs {
		// Skipped positions read back as zero Records; they were
		// discarded on arrival and count as lost, like an overwrite.
		if r.Seq != 0 {
			out = append(out, r)
		}
	}
	return out, cur
}

func (s *lockedStore) last(n int) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.buf.Last(n)
	// Skipped positions read back as zero Records; drop them.
	out := recs[:0]
	for _, r := range recs {
		if r.Seq != 0 {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
