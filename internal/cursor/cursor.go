// Package cursor is the one implementation of the delivery contract's
// cursor rule (ARCHITECTURE.md, "The delivery contract, in one place",
// rules 3 and 4). Every cursor-carrying reader in the system — the
// in-process Subscription, the polled file/log/shm stream, the relay's
// replay-ring subscribers — reads its medium at a cursor, learns the
// medium's head and how many records newer than the cursor it got, and
// asks Advance what that means. The rule used to be spelled out at each of
// those sites; PRs 3, 5 and 6 each fixed a bug in one copy.
package cursor

// Move classifies one read.
type Move int

const (
	// Idle: the head equals the cursor. Nothing was published; the reader
	// waits (or, when its medium has ended, reports io.EOF).
	Idle Move = iota
	// Moved: the head is past the cursor. The read's records are due, the
	// rest of the span is Missed, and the cursor follows the head.
	Moved
	// Resync: the head is behind the cursor. The cursor came from a
	// previous life of the producer, whose sequence space restarted: the
	// reader starts over from zero and reads again. The records between
	// the two lives are unknowable, so nothing is counted Missed.
	Resync
)

// Advance applies the rule to one read: a reader positioned at cursor saw
// its medium's head at head and received n records newer than cursor. It
// returns the cursor to continue from, how many published records the read
// passed over (lapped before this reader got to them), and what kind of
// read it was. A read that returns more records than the span it covers (a
// reader that is not a true cursor read) reports zero missed rather than
// underflowing.
func Advance(cursor, head uint64, n int) (next, missed uint64, m Move) {
	switch {
	case head < cursor:
		return 0, 0, Resync
	case head == cursor:
		return cursor, 0, Idle
	}
	if span := head - cursor; span > uint64(n) {
		missed = span - uint64(n)
	}
	return head, missed, Moved
}
