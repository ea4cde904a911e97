package observer

import (
	"time"

	"repro/heartbeat"
)

// Rollup is one downsampled observation window of one application's
// heartbeat stream: the fixed-interval summary a relay tier publishes in
// place of raw records, so a monitor can watch thousands of producers at a
// bounded per-producer cost. It reduces everything a raw Window would have
// told an observer about the interval — progress, rate, regularity, loss —
// to a constant-size record.
type Rollup struct {
	// App names the upstream application (or feed) the window summarizes.
	App string
	// Start and End bound the downsample window on the reducer's clock.
	Start, End time.Time
	// Records is how many records were delivered inside the window.
	Records uint64
	// Missed is how many records the stream reported lost to overwrite
	// (lapped rings, connection outages) inside the window. Summed across
	// windows it matches the Missed a raw subscription would have
	// accumulated over the same stream — downsampling never hides loss.
	Missed uint64
	// Count is the producer's cumulative record count at the window's end,
	// as advertised by the stream (Batch.Count).
	Count uint64
	// Rate is the heart rate over the window's delivered records — the
	// same (n-1)/span definition heartbeat.RateOf applies to a raw window,
	// with FirstSeq/LastSeq bounding the records used. Valid when RateOK.
	Rate   heartbeat.Rate
	RateOK bool
	// MinInterval, MaxInterval and MeanInterval summarize the inter-beat
	// gaps between consecutive delivered records, including the gap
	// spanning from the previous window's last record into this window —
	// so a 1-beat window still has one interval. Zero when the window saw
	// fewer than one interval.
	MinInterval, MaxInterval, MeanInterval time.Duration
}

// Silent reports a window in which the application published nothing at
// all: no records delivered AND no losses counted. A window with
// Records == 0 but Missed > 0 is not silent — records were published and
// lost before delivery (a lapped ring, a reconnect gap), which proves the
// producer alive. This is the distinction a weight policy drains on.
func (r Rollup) Silent() bool { return r.Records == 0 && r.Missed == 0 }

// ObservedRate returns the window's best available beats-per-second
// estimate: the windowed Rate when valid, else the reciprocal of the mean
// inter-beat interval (which a 1-record window still has, via the gap
// carried from the previous window), else 0 — no evidence.
func (r Rollup) ObservedRate() float64 {
	if r.RateOK && r.Rate.PerSec > 0 {
		return r.Rate.PerSec
	}
	if r.MeanInterval > 0 {
		return 1 / r.MeanInterval.Seconds()
	}
	return 0
}

// RollupWindow reduces one application's stream batches into successive
// Rollups. It is the batch-reducer counterpart of Window: where Window
// retains the last N records for judgment, RollupWindow retains O(1) state
// — first/last record, interval accumulators, counters — so a relay can
// run one per upstream at any fan-in without per-record memory.
//
// RollupWindow is not safe for concurrent use; each reducer owns one.
type RollupWindow struct {
	app string

	// Window-local accumulation, reset by Flush.
	records uint64
	missed  uint64
	first   heartbeat.Record
	last    heartbeat.Record

	// Interval accumulation. prev persists across Flush so the gap between
	// the last record of one window and the first of the next is counted
	// (in the later window), matching the intervals a raw Window computes
	// over a contiguous record history.
	prev      int64 // Unix nanoseconds of the last record absorbed
	prevOK    bool
	intervals uint64
	sumIv     time.Duration
	minIv     time.Duration
	maxIv     time.Duration

	// Stream-advertised cumulative state, never reset.
	count uint64
}

// NewRollupWindow returns a reducer for the named application.
func NewRollupWindow(app string) *RollupWindow {
	return &RollupWindow{app: app}
}

// App returns the application name given to NewRollupWindow.
func (w *RollupWindow) App() string { return w.app }

// Absorb folds one batch into the current window.
func (w *RollupWindow) Absorb(b Batch) {
	w.missed += b.Missed
	if b.Count > 0 {
		// Follow the stream's advertised cumulative count wherever it
		// goes — including DOWN, which means the producer restarted and
		// its count began again (zero just means the stream does not
		// populate Count; keep the last real value then).
		w.count = b.Count
	}
	recs := b.Records
	if len(recs) == 0 {
		return
	}
	if w.records == 0 {
		w.first = recs[0]
	}
	w.last = recs[len(recs)-1]
	w.records += uint64(len(recs))
	if !w.prevOK {
		w.prev, w.prevOK = recs[0].Time.UnixNano(), true
		recs = recs[1:] // the first record ever has no gap before it
	}
	prev, n, sum, lo, hi := w.prev, w.intervals, w.sumIv, w.minIv, w.maxIv
	for i := range recs {
		t := recs[i].Time.UnixNano()
		iv := time.Duration(t - prev)
		if iv < 0 {
			iv = 0 // concurrent producers can interleave timestamps
		}
		if n == 0 || iv < lo {
			lo = iv
		}
		if iv > hi {
			hi = iv
		}
		sum += iv
		n++
		prev = t
	}
	w.prev, w.intervals, w.sumIv, w.minIv, w.maxIv = prev, n, sum, lo, hi
}

// Active reports whether the current window has absorbed any records or
// losses since the last Flush — whether Flush would say anything beyond
// "silent".
func (w *RollupWindow) Active() bool { return w.records > 0 || w.missed > 0 }

// Flush emits the current window as a Rollup spanning [start, end] and
// resets the window-local state. A window with no delivered records yields
// Records == 0 and RateOK == false — silence is reported, not elided, so a
// flatlined producer is as visible downsampled as raw.
func (w *RollupWindow) Flush(start, end time.Time) Rollup {
	r := Rollup{
		App:     w.app,
		Start:   start,
		End:     end,
		Records: w.records,
		Missed:  w.missed,
		Count:   w.count,
	}
	if w.records >= 2 {
		span := w.last.Time.Sub(w.first.Time)
		if span > 0 {
			r.Rate = heartbeat.Rate{
				PerSec:   float64(w.records-1) / span.Seconds(),
				Beats:    int(w.records),
				Span:     span,
				FirstSeq: w.first.Seq,
				LastSeq:  w.last.Seq,
			}
			r.RateOK = true
		}
	}
	if w.records >= 1 {
		r.Rate.FirstSeq, r.Rate.LastSeq = w.first.Seq, w.last.Seq
	}
	if w.intervals > 0 {
		r.MinInterval = w.minIv
		r.MaxInterval = w.maxIv
		r.MeanInterval = w.sumIv / time.Duration(w.intervals)
	}
	w.records, w.missed = 0, 0
	w.first, w.last = heartbeat.Record{}, heartbeat.Record{}
	w.intervals, w.sumIv, w.minIv, w.maxIv = 0, 0, 0, 0
	return r
}

// Downsampler reduces the streams of many named applications into
// per-interval Rollup slices: the fan-in reducer at the heart of a relay
// tier. Absorb routes batches to per-app RollupWindows; Flush emits one
// Rollup per registered application (registration order), covering the
// elapsed interval.
//
// Downsampler is not safe for concurrent use; a relay's pumps and rollup
// tick share it under the relay's lock.
type Downsampler struct {
	apps  map[string]*RollupWindow
	order []string
}

// NewDownsampler returns an empty reducer; applications register lazily on
// first Absorb (or explicitly with Track).
func NewDownsampler() *Downsampler {
	return &Downsampler{apps: make(map[string]*RollupWindow)}
}

// Track registers app so Flush reports it even before (or without) any
// records — a producer that never speaks still shows up as silent windows.
func (d *Downsampler) Track(app string) *RollupWindow {
	w, ok := d.apps[app]
	if !ok {
		w = NewRollupWindow(app)
		d.apps[app] = w
		d.order = append(d.order, app)
	}
	return w
}

// Absorb folds one batch of the named application's stream into its
// current window.
func (d *Downsampler) Absorb(app string, b Batch) {
	d.Track(app).Absorb(b)
}

// Flush emits one Rollup per tracked application for the window
// [start, end], in registration order, and resets every window.
func (d *Downsampler) Flush(start, end time.Time) []Rollup {
	if len(d.order) == 0 {
		return nil
	}
	out := make([]Rollup, 0, len(d.order))
	for _, app := range d.order {
		out = append(out, d.apps[app].Flush(start, end))
	}
	return out
}

// Apps returns the tracked application names in registration order.
func (d *Downsampler) Apps() []string {
	return append([]string(nil), d.order...)
}

// Remove untracks app, flushing whatever the current window had absorbed as
// one final partial Rollup spanning [start, end]. The second return reports
// whether that rollup says anything (the app was tracked and its window was
// active) — callers emit it so mid-window counts survive the removal and
// rollup conservation holds. Removing an unknown app is a no-op.
func (d *Downsampler) Remove(app string, start, end time.Time) (Rollup, bool) {
	w, ok := d.apps[app]
	if !ok {
		return Rollup{}, false
	}
	delete(d.apps, app)
	for i, a := range d.order {
		if a == app {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	active := w.Active()
	return w.Flush(start, end), active
}
