package observer

import (
	"time"

	"repro/heartbeat"
	"repro/internal/stats"
)

// Window accumulates stream batches into the bounded record window that
// rate and health judgments are made over. Absorb folds in only the new
// records of each batch, and the derived statistics (windowed rate,
// interval variability) are cached between batches, so an idle tick does
// no per-record work at all.
//
// Window is not safe for concurrent use; each consumer owns one.
type Window struct {
	cap    int
	window int
	recs   []heartbeat.Record

	count                uint64
	targetMin, targetMax float64
	targetSet            bool
	missed               uint64

	dirty       bool
	statsWindow int
	rate        heartbeat.Rate
	rateOK      bool
	cv          float64
}

// NewWindow returns a Window retaining the last capacity records.
// capacity <= 0 tracks the observed application's own default window
// (64 records until the first batch reports one).
func NewWindow(capacity int) *Window {
	return &Window{cap: capacity, statsWindow: -1}
}

func (w *Window) limit() int {
	if w.cap > 0 {
		return w.cap
	}
	if w.window > 0 {
		return w.window
	}
	return 64
}

// Absorb folds one batch into the window. A batch whose first record does
// not continue the retained sequence (its Seq is at or below the newest
// retained one) is a new life of the producer — a stream resynchronized
// after a restart — so the old life's records and count are dropped rather
// than judged across the gap between lives.
func (w *Window) Absorb(b Batch) {
	if b.Window > 0 {
		w.window = b.Window
	}
	if n := len(w.recs); n > 0 && len(b.Records) > 0 && b.Records[0].Seq <= w.recs[n-1].Seq {
		w.recs, w.count = w.recs[:0], b.Count
	} else if b.Count > w.count {
		w.count = b.Count
	}
	w.targetMin, w.targetMax, w.targetSet = b.TargetMin, b.TargetMax, b.TargetSet
	w.missed += b.Missed
	if len(b.Records) == 0 {
		return
	}
	w.recs = append(w.recs, b.Records...)
	if lim := w.limit(); len(w.recs) > lim {
		keep := w.recs[len(w.recs)-lim:]
		w.recs = append(w.recs[:0], keep...)
	}
	w.dirty = true
}

// Records returns the retained records, oldest to newest. The slice is the
// window's own storage: read it, don't keep it across Absorbs.
//
//hbvet:api -- user need: the records behind a judgment, for an observer that reports more than the rate
func (w *Window) Records() []heartbeat.Record { return w.recs }

// Count returns the observed application's total heartbeat count.
func (w *Window) Count() uint64 { return w.count }

// Missed returns how many records the stream reported lost to overwrite.
func (w *Window) Missed() uint64 { return w.missed }

// Target returns the advertised target range; ok is false when the
// application never set one.
func (w *Window) Target() (min, max float64, ok bool) {
	return w.targetMin, w.targetMax, w.targetSet
}

// LastBeat returns the timestamp of the newest retained record (zero when
// the window is empty).
//
//hbvet:api -- user need: how stale an application's newest beat is
func (w *Window) LastBeat() time.Time {
	if len(w.recs) == 0 {
		return time.Time{}
	}
	return w.recs[len(w.recs)-1].Time
}

// RateOver computes the heart rate over the last window records;
// window <= 0 uses the application's default window.
func (w *Window) RateOver(window int) (heartbeat.Rate, bool) {
	if window <= 0 {
		window = w.window
	}
	recs := w.recs
	if window > 0 && len(recs) > window {
		recs = recs[len(recs)-window:]
	}
	return heartbeat.RateOf(recs)
}

// cachedStats returns the windowed rate and interval CV, recomputing them
// only when records arrived (or the requested rate window changed) since
// the last call. This is what makes an idle classification tick O(1).
func (w *Window) cachedStats(rateWindow int) (heartbeat.Rate, bool, float64) {
	if w.dirty || rateWindow != w.statsWindow {
		w.rate, w.rateOK = w.RateOver(rateWindow)
		w.cv = stats.Summarize(heartbeat.Intervals(w.recs)).CV()
		w.statsWindow = rateWindow
		w.dirty = false
	}
	return w.rate, w.rateOK, w.cv
}
