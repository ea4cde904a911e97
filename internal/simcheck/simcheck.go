// Package simcheck holds the machine-checked form of the delivery
// contract: the invariants every stream in the system promises —
// exactly-once in-order delivery, losses surfaced as Missed through cursor
// arithmetic (never silently), delivered + missed == head at every hop —
// written once and shared by the live tests (real TCP, real files, real
// child processes) and the simulated scenario matrix (package simnet). A
// live test and a simulated one failing the same checker fail for the same
// reason, which is the point: the simulation proves the same contract the
// wall-clock tests observe.
package simcheck

import (
	"fmt"
	"testing"

	"repro/heartbeat"
	"repro/observer"
)

// Dense verifies that recs carry strictly increasing, gap-free sequence
// numbers starting right after since — the exactly-once contract in the
// no-loss case.
func Dense(recs []heartbeat.Record, since uint64) error {
	next := since + 1
	for i, r := range recs {
		if r.Seq != next {
			return fmt.Errorf("record %d: seq %d, want %d (duplicate or gap)", i, r.Seq, next)
		}
		next++
	}
	return nil
}

// RequireDense is Dense as a test assertion.
func RequireDense(tb testing.TB, recs []heartbeat.Record, since uint64) {
	tb.Helper()
	if err := Dense(recs, since); err != nil {
		tb.Fatal(err)
	}
}

// Conserved verifies the loss-accounting identity at one hop: everything
// the producer published is either delivered or counted missed —
// delivered + missed == head, nothing lost unaccounted, nothing invented.
func Conserved(label string, delivered, missed, head uint64) error {
	if delivered+missed != head {
		return fmt.Errorf("%s does not conserve: delivered %d + missed %d = %d, want head %d",
			label, delivered, missed, delivered+missed, head)
	}
	return nil
}

// RequireConserved is Conserved as a test assertion.
func RequireConserved(tb testing.TB, label string, delivered, missed, head uint64) {
	tb.Helper()
	if err := Conserved(label, delivered, missed, head); err != nil {
		tb.Fatal(err)
	}
}

// Life is the accounting of one producer life as observed by a consumer:
// what it delivered, what it was told was lost, and the head (newest
// sequence number) the life reached from the consumer's point of view.
// Delivered + Missed == Head within each life.
type Life struct {
	Delivered, Missed, Head uint64
}

// Tracker absorbs one consumer's batches and verifies the delivery
// contract incrementally. Each batch's Count is where its reader stands
// after it (observer.Batch), so the tracker never infers a cursor from the
// records: a batch must read exactly the span from a base to its Count —
// records strictly increasing inside it, the rest of it Missed. The base
// is the tracker's cursor (a continuation) or zero (a producer-restart
// resynchronization: the stream reset its cursor to zero and read the new
// life, which closes the current Life and opens the next), with or without
// records. Any other shape — duplicates, unaccounted gaps, over-reported
// losses, records past the Count — is a contract violation, returned by
// Absorb and latched in Err.
//
// A Tracker is one consumer's view: feed it every batch of a single
// Stream, in order.
type Tracker struct {
	label  string
	cursor uint64
	cur    Life
	lives  []Life
	err    error
}

// NewTracker creates a tracker for one stream positioned after sequence
// number since (0 for a stream from the beginning).
func NewTracker(label string, since uint64) *Tracker {
	return &Tracker{label: label, cursor: since}
}

func (t *Tracker) fail(format string, args ...interface{}) error {
	err := fmt.Errorf("%s: %s", t.label, fmt.Sprintf(format, args...))
	if t.err == nil {
		t.err = err
	}
	return err
}

// Absorb verifies one batch and folds it into the accounting. The first
// violation is returned and latched; subsequent batches are still
// absorbed best-effort so totals remain inspectable.
func (t *Tracker) Absorb(b observer.Batch) error {
	recs := b.Records
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			return t.fail("batch not strictly increasing: seq %d after %d (index %d)",
				recs[i].Seq, recs[i-1].Seq, i)
		}
	}
	n := uint64(len(recs))
	switch {
	case spans(t.cursor, b):
		// Continuation: the batch reads on from the cursor.
	case spans(0, b):
		// Restart resynchronization: the batch reads the new life from
		// zero. It can also arrive at a Count past the old cursor, when
		// the new life lapped past it before its first delivery; Missed
		// tells the two readings apart, and where they agree (cursor 0)
		// they are the same batch. The harness-level CheckLives guard
		// keeps a stream that wrongly re-reports from zero from hiding
		// here.
		t.lives = append(t.lives, t.cur)
		t.cur = Life{}
	case b.Count >= t.cursor+n && (n == 0 || recs[0].Seq > t.cursor):
		return t.fail("batch from cursor %d to Count %d carries %d records and reports Missed=%d, want %d",
			t.cursor, b.Count, n, b.Missed, b.Count-t.cursor-n)
	default:
		return t.fail("batch at Count %d with %d records (Missed=%d) neither continues cursor %d nor restarts from zero",
			b.Count, n, b.Missed, t.cursor)
	}
	t.cursor = b.Count
	t.cur.Delivered += n
	t.cur.Missed += b.Missed
	t.cur.Head = t.cursor
	return nil
}

// spans reports whether b reads exactly the span after base up to its
// Count: every record inside it and the rest of it counted Missed.
func spans(base uint64, b observer.Batch) bool {
	n := uint64(len(b.Records))
	if b.Count < base+n {
		return false
	}
	if n > 0 && (b.Records[0].Seq <= base || b.Records[n-1].Seq > b.Count) {
		return false
	}
	return b.Missed == b.Count-base-n
}

// Err returns the first contract violation observed, if any.
func (t *Tracker) Err() error { return t.err }

// Cursor returns where the stream stands: the last batch's Count (the
// current life's), or since before the first batch.
func (t *Tracker) Cursor() uint64 { return t.cursor }

// Lives returns the accounting of every producer life observed, completed
// lives first, the in-progress one last. A run with no restarts has
// exactly one.
func (t *Tracker) Lives() []Life {
	return append(append([]Life(nil), t.lives...), t.cur)
}

// Delivered returns total records delivered across all lives.
func (t *Tracker) Delivered() uint64 {
	n := t.cur.Delivered
	for _, l := range t.lives {
		n += l.Delivered
	}
	return n
}

// Missed returns total records reported lost across all lives.
func (t *Tracker) Missed() uint64 {
	n := t.cur.Missed
	for _, l := range t.lives {
		n += l.Missed
	}
	return n
}

// Heads returns the summed observed heads across all lives: the total
// sequence space the consumer has accounted for. Delivered() + Missed()
// == Heads() by construction; compare Heads against the producers' true
// published heads to close the conservation argument end to end.
func (t *Tracker) Heads() uint64 {
	n := t.cur.Head
	for _, l := range t.lives {
		n += l.Head
	}
	return n
}

// CheckLives verifies the tracker saw exactly want producer lives (one
// more than the number of restarts) — the guard that makes a duplicated
// batch misread as a "restart" fail loudly instead of inflating totals.
func (t *Tracker) CheckLives(want int) error {
	if got := len(t.Lives()); got != want {
		return t.fail("observed %d producer lives, want %d (lives: %+v)", got, want, t.Lives())
	}
	return nil
}

// CheckConserved verifies the end-to-end identity against the true
// published total: every record any producer life published was either
// delivered or counted missed.
func (t *Tracker) CheckConserved(publishedTotal uint64) error {
	if got := t.Delivered() + t.Missed(); got != publishedTotal {
		return t.fail("delivered %d + missed %d = %d, want published total %d",
			t.Delivered(), t.Missed(), got, publishedTotal)
	}
	return nil
}

// RemapBound returns the invariant ceiling on a routing-table swap's
// measured remap fraction, given the swap's weight share (the changed
// weight over the larger of the total weight before and after). A
// weighted-rendezvous table's expected remap fraction IS the share; the
// 1.5× factor absorbs finite-bucket variance and the additive term keeps
// tiny shares (a reclaim ramp step among many nodes) from flagging on a
// handful of buckets.
func RemapBound(share float64) float64 { return 1.5*share + 0.03 }

// CheckRemap verifies the minimal-disruption invariant for one observed
// table swap: the fraction of the key space that actually moved must stay
// within RemapBound of the weight share that moved. This is the balancer
// counterpart of Conserved — rebalancing must never reshuffle keys it had
// no reason to touch.
func CheckRemap(label string, frac, share float64) error {
	if bound := RemapBound(share); frac > bound {
		return fmt.Errorf("%s: swap remapped %.3f of the key space for a weight share of %.3f (bound %.3f) — disruption not minimal",
			label, frac, share, bound)
	}
	return nil
}

// CheckShed verifies the backpressure-accounting invariant: shed is a
// refinement of Missed — every record a relay sheds off a lagging
// subscription is also counted missed by that subscription — so the shed
// tally can never exceed the missed tally over the same streams. A shed
// count above Missed means loss was attributed to backpressure that the
// delivery ledger never saw.
func CheckShed(label string, shed, missed uint64) error {
	if shed > missed {
		return fmt.Errorf("%s: shed %d records but only %d were missed — shed must refine Missed, not exceed it",
			label, shed, missed)
	}
	return nil
}

// RollupAccount accumulates rollup-feed deliveries for the count
// conservation check: the sum of Records and Missed over every emitted
// window must equal the merged head the relay observed.
type RollupAccount struct {
	Records, Missed uint64
	// EmissionsMissed counts whole windows lapped before delivery; exact
	// conservation is only checkable when it stays zero.
	EmissionsMissed uint64
	Emissions       uint64
}

// AbsorbRollups folds one rollup delivery into the account.
func (a *RollupAccount) AbsorbRollups(rs []observer.Rollup, emissionsMissed uint64) {
	for _, r := range rs {
		a.Records += r.Records
		a.Missed += r.Missed
	}
	a.EmissionsMissed += emissionsMissed
	a.Emissions++
}

// CheckConserved verifies rollup count conservation against the merged
// head: downsampling must neither hide loss nor invent records.
func (a *RollupAccount) CheckConserved(label string, head uint64) error {
	if a.EmissionsMissed != 0 {
		return fmt.Errorf("%s: %d rollup emissions lapped; conservation unverifiable", label, a.EmissionsMissed)
	}
	return Conserved(label, a.Records, a.Missed, head)
}

// Ceiling checks a measured scalar against an explicit budget — the scale
// harness's resource invariants (p99 latency, bytes per producer) phrased
// the same way the delivery invariants are: a named check that returns the
// violation, so the caller can attach the replay seed.
func Ceiling(label string, got, max float64) error {
	if got > max {
		return fmt.Errorf("%s: %g exceeds the ceiling %g", label, got, max)
	}
	return nil
}

// RequireCeiling fails the test when got exceeds its ceiling.
func RequireCeiling(tb testing.TB, label string, got, max float64) {
	tb.Helper()
	if err := Ceiling(label, got, max); err != nil {
		tb.Fatal(err)
	}
}
