// Package check holds the correctness assertions every benchmark run makes
// before it prints a number. Records carry tag = app<<40 | index, so a
// consumer recovers which application published a record and where in that
// application's schedule it sits, however many relays re-sequenced it on
// the way.
package check

import "fmt"

const indexBits = 40

// Tag packs an application id and a per-application index.
func Tag(app int, index uint64) int64 { return int64(app)<<indexBits | int64(index) }

// Split unpacks a tag.
func Split(tag int64) (app int, index uint64) {
	return int(tag >> indexBits), uint64(tag) & (1<<indexBits - 1)
}

// Order checks one consumer's view of a tagged stream: per application,
// indices must arrive strictly increasing, so nothing is duplicated or
// reordered, and what was skipped is known exactly.
type Order struct {
	next      []uint64 // per app: lowest index not yet ruled out
	delivered []uint64
	firstErr  error
}

// NewOrder tracks apps applications.
func NewOrder(apps int) *Order {
	return &Order{next: make([]uint64, apps), delivered: make([]uint64, apps)}
}

// Observe takes the next delivered tag and returns what it unpacks to; ok is
// false for a tag no tracked application could have published.
func (o *Order) Observe(tag int64) (app int, idx uint64, ok bool) {
	app, idx = Split(tag)
	if app < 0 || app >= len(o.next) {
		o.fail(fmt.Errorf("record tagged for unknown app %d", app))
		return app, idx, false
	}
	if idx < o.next[app] {
		o.fail(fmt.Errorf("app %d: index %d arrived after index %d (duplicate or reordered)", app, idx, o.next[app]-1))
		return app, idx, true
	}
	o.next[app] = idx + 1
	o.delivered[app]++
	return app, idx, true
}

func (o *Order) fail(err error) {
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// Delivered returns how many records of app were observed.
func (o *Order) Delivered(app int) uint64 { return o.delivered[app] }

// Total returns how many records were observed in all.
func (o *Order) Total() uint64 {
	var n uint64
	for _, d := range o.delivered {
		n += d
	}
	return n
}

// Conserved closes the books against what the producers published and what
// the stream itself reported as missed: per application nothing may arrive
// that was not published, and over all applications
// delivered + missed == published. With missed == 0 that forces every
// application's delivered count to equal its published count exactly.
func (o *Order) Conserved(published []uint64, missed uint64) error {
	if o.firstErr != nil {
		return o.firstErr
	}
	var pub, got uint64
	for app, p := range published {
		if o.next[app] > p {
			return fmt.Errorf("app %d: saw index %d but only %d were published", app, o.next[app]-1, p)
		}
		if missed == 0 && o.delivered[app] != p {
			return fmt.Errorf("app %d: delivered %d of %d published with no loss reported", app, o.delivered[app], p)
		}
		pub += p
		got += o.delivered[app]
	}
	if got+missed != pub {
		return fmt.Errorf("delivered %d + missed %d != published %d", got, missed, pub)
	}
	return nil
}

// Zero fails when a tree run missed, shed or reconnected anything: the tree
// workloads are built so that none of the three can happen.
func Zero(missed, shed, reconnects uint64) error {
	if missed != 0 || shed != 0 || reconnects != 0 {
		return fmt.Errorf("missed = %d, shed = %d, reconnects = %d, want all 0", missed, shed, reconnects)
	}
	return nil
}

// Rollups checks conservation through a downsampling tier: per application
// the records and losses summed over every rollup must equal what that
// application published.
func Rollups(records, missed, published []uint64) error {
	for app, p := range published {
		if records[app]+missed[app] != p {
			return fmt.Errorf("app %d: rollups account for %d records + %d missed, published %d", app, records[app], missed[app], p)
		}
	}
	return nil
}
