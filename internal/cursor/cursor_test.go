package cursor_test

import (
	"math/rand"
	"testing"

	"repro/heartbeat"
	"repro/internal/cursor"
	"repro/internal/simcheck"
	"repro/observer"
)

func TestAdvanceEdges(t *testing.T) {
	for _, tc := range []struct {
		name         string
		cursor, head uint64
		n            int
		next, missed uint64
		move         cursor.Move
	}{
		{"head < cursor resyncs to zero and counts nothing", 100, 5, 0, 0, 0, cursor.Resync},
		{"head == cursor is idle and moves nothing", 7, 7, 0, 7, 0, cursor.Idle},
		{"head - cursor < n must not underflow missed", 10, 12, 5, 12, 0, cursor.Moved},
		{"dense read misses nothing", 10, 15, 5, 15, 0, cursor.Moved},
		{"lapped read counts the rest of the span", 10, 100, 8, 100, 82, cursor.Moved},
		{"loss-only read", 3, 9, 0, 9, 6, cursor.Moved},
	} {
		next, missed, move := cursor.Advance(tc.cursor, tc.head, tc.n)
		if next != tc.next || missed != tc.missed || move != tc.move {
			t.Errorf("%s: Advance(%d, %d, %d) = (%d, %d, %v), want (%d, %d, %v)",
				tc.name, tc.cursor, tc.head, tc.n, next, missed, move, tc.next, tc.missed, tc.move)
		}
	}
}

// medium is a bounded ring of dense sequence numbers: the model of every
// history the rule is applied to. A restart begins a new life at seq 1.
type medium struct {
	head, capacity uint64
}

// readSince is a true cursor read: up to max retained records newer than
// since, oldest first, and the position consumed up to.
func (m *medium) readSince(since uint64, max int) ([]heartbeat.Record, uint64) {
	if m.head <= since {
		return nil, m.head
	}
	first := since + 1
	if m.head-since > m.capacity {
		first = m.head - m.capacity + 1
	}
	to := m.head
	if to-first+1 > uint64(max) {
		to = first + uint64(max) - 1
	}
	recs := make([]heartbeat.Record, 0, to-first+1)
	for s := first; s <= to; s++ {
		recs = append(recs, heartbeat.Record{Seq: s})
	}
	return recs, to
}

// Random publish / lap / producer-restart / read schedules, every read
// settled by cursor.Advance and audited by the delivery contract's own
// checker: delivered + missed = published in every producer life, a resync
// counts nothing as missed, an idle read moves nothing.
func TestAdvanceConservesAcrossLapsAndRestarts(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := &medium{capacity: uint64(1 + rng.Intn(64))}
		var cur, published uint64
		lives := 1
		tracker := simcheck.NewTracker("reader", 0)

		// read settles one Next: resyncs re-read, exactly like the streams.
		read := func() {
			for {
				recs, head := m.readSince(cur, 1+rng.Intn(48))
				next, missed, move := cursor.Advance(cur, head, len(recs))
				switch move {
				case cursor.Resync:
					if next != 0 || missed != 0 {
						t.Fatalf("seed %d: resync to %d counting %d missed", seed, next, missed)
					}
					cur = next
					continue
				case cursor.Idle:
					if next != cur || missed != 0 || len(recs) != 0 {
						t.Fatalf("seed %d: idle read moved the cursor %d -> %d (missed %d)", seed, cur, next, missed)
					}
					return
				}
				cur = next
				if err := tracker.Absorb(observer.Batch{Records: recs, Count: head, Missed: missed}); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				return
			}
		}
		// drain reads until idle, so a life's whole head is accounted before
		// the next life overwrites it (what the gap between lives loses is
		// unknowable by contract; the test does not create any).
		drain := func() {
			for cur != m.head {
				read()
			}
		}

		for step := 0; step < 400; step++ {
			switch p := rng.Intn(100); {
			case p < 55: // publish a little
				n := uint64(rng.Intn(8))
				m.head, published = m.head+n, published+n
			case p < 65: // publish a burst that laps the ring
				n := m.capacity + uint64(rng.Intn(100))
				m.head, published = m.head+n, published+n
			case p < 70: // the producer restarts after the reader caught up
				drain()
				if m.head == 0 {
					continue // an empty life is not observable as a life
				}
				// The new life stays below the old cursor until the next
				// read: passing it first is the case only inode identity
				// (observer.FollowFile) can tell from a continuation.
				n := uint64(rng.Intn(int(m.head)))
				if n == 0 {
					continue
				}
				m.head, published = n, published+n
				lives++
				read()
			default:
				read()
			}
		}
		drain()
		if err := tracker.CheckLives(lives); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := tracker.CheckConserved(published); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
