package observer

import (
	"time"

	"repro/heartbeat"
)

// RollupCompactor merges already-downsampled windows — the rollups a relay
// receives from its children — into one window per application, which is
// what keeps a relay tree's root at O(apps) state however many producers
// beat underneath: the leaves reduce raw records to per-app rollups
// (Downsampler), and every interior node reduces its children's rollups
// with a compactor instead of re-tracking producers. Like the
// Downsampler's per-app windows it keeps constant state per app: absorbed
// windows folded in, Flush emits and resets.
//
// The count-conserving fields — Records and Missed — are pure sums, so
// compaction preserves the conservation identity exactly: over any span,
// the Records+Missed a compacted feed emits equals the Records+Missed
// absorbed from the children, which equals the raw records+losses
// underneath (downsampling never hides loss, however deep the tree). The
// descriptive fields are summaries of summaries: Min/MaxInterval take the
// extremes across children, MeanInterval and Rate are record-weighted
// means, and Count is the largest advertised cumulative count (exact when
// each app reaches the compactor through one child, as in a tree where an
// app lives on one leaf).
//
// RollupCompactor is not safe for concurrent use; a relay guards it with its lock.
type RollupCompactor struct {
	apps  map[string]*compactWindow
	order []string
}

type compactWindow struct {
	records uint64
	missed  uint64
	count   uint64 // cumulative; survives Flush like rollupWindow's
	windows uint64 // source windows folded in (silent ones included)

	minIv, maxIv time.Duration
	ivWeighted   float64 // Σ MeanInterval_i * Records_i, seconds
	ivRecords    uint64
	rateWeighted float64 // Σ ObservedRate_i * Records_i
	rateRecords  uint64
}

// NewRollupCompactor returns an empty compactor; applications register
// lazily on first Absorb.
func NewRollupCompactor() *RollupCompactor {
	return &RollupCompactor{apps: make(map[string]*compactWindow)}
}

// track registers app so Flush reports it even before (or without) any
// absorbed windows — parity with Downsampler.Track: a silent child still
// shows up, as silence.
func (c *RollupCompactor) track(app string) {
	if _, ok := c.apps[app]; !ok {
		c.apps[app] = &compactWindow{}
		c.order = append(c.order, app)
	}
}

// Absorb folds one child window into its app's current compaction window.
func (c *RollupCompactor) Absorb(r Rollup) {
	c.track(r.App)
	w := c.apps[r.App]
	w.records += r.Records
	w.missed += r.Missed
	w.windows++
	if r.Count > w.count {
		w.count = r.Count
	}
	if r.MinInterval > 0 && (w.minIv == 0 || r.MinInterval < w.minIv) {
		w.minIv = r.MinInterval
	}
	if r.MaxInterval > w.maxIv {
		w.maxIv = r.MaxInterval
	}
	if r.MeanInterval > 0 && r.Records > 0 {
		w.ivWeighted += r.MeanInterval.Seconds() * float64(r.Records)
		w.ivRecords += r.Records
	}
	if rate := r.ObservedRate(); rate > 0 && r.Records > 0 {
		w.rateWeighted += rate * float64(r.Records)
		w.rateRecords += r.Records
	}
}

// Flush emits one compacted Rollup per tracked application for the window
// [start, end], in registration order, and resets every window's
// per-interval state (cumulative Count persists).
func (c *RollupCompactor) Flush(start, end time.Time) []Rollup {
	if len(c.order) == 0 {
		return nil
	}
	out := make([]Rollup, 0, len(c.order))
	for _, app := range c.order {
		w := c.apps[app]
		r := Rollup{
			App:     app,
			Start:   start,
			End:     end,
			Records: w.records,
			Missed:  w.missed,
			Count:   w.count,
		}
		if w.rateRecords > 0 {
			r.Rate = heartbeat.Rate{
				PerSec: w.rateWeighted / float64(w.rateRecords),
				Beats:  int(w.records),
			}
			r.RateOK = true
		}
		r.MinInterval, r.MaxInterval = w.minIv, w.maxIv
		if w.ivRecords > 0 {
			r.MeanInterval = time.Duration(w.ivWeighted / float64(w.ivRecords) * float64(time.Second))
		}
		out = append(out, r)
		*w = compactWindow{count: w.count}
	}
	return out
}

// Apps returns the tracked application names in registration order — at a
// relay-tree root, the fleet's applications, however many producers feed
// them.
func (c *RollupCompactor) Apps() []string {
	return append([]string(nil), c.order...)
}
