package heartbeat

import (
	"time"

	"repro/internal/stats"
)

// This file holds the in-depth analysis helpers the paper motivates for
// HB_get_history: "examine intervals between individual heartbeats or
// filter heartbeats according to their tags" (§3). A video encoder tags
// beats with the frame type and asks for the I-frame rate; a pipeline tags
// beats with the stage and asks for per-stage progress.

// RateOf computes the windowed heart rate over recs (oldest to newest):
// len(recs)-1 beats over the span between the first and last record. ok is
// false with fewer than two records or a non-positive span (which a
// backward wall-clock step would otherwise produce — producers clamp beat
// times non-decreasing, so a step plateaus the rate instead of making it
// negative). This is the single shared definition of the windowed rate;
// every consumer — Heartbeat.Rate, observer.Window.RateOver, the hbfile
// readers — computes through it, so a step-tolerance fix lands everywhere
// at once.
func RateOf(recs []Record) (Rate, bool) { return rateOf(recs) }

// filterTag returns the records of recs carrying the given tag, preserving
// order.
func filterTag(recs []Record, tag int64) []Record {
	var out []Record
	for _, r := range recs {
		if r.Tag == tag {
			out = append(out, r)
		}
	}
	return out
}

// filterProducer returns the records of recs emitted by the given
// registered thread (0 selects records beaten directly on the global
// handle), preserving order.
func filterProducer(recs []Record, producer int32) []Record {
	var out []Record
	for _, r := range recs {
		if r.Producer == producer {
			out = append(out, r)
		}
	}
	return out
}

// RateByTag computes the heart rate of only the records carrying tag,
// over the last n global records.
//
//hbvet:api -- paper §3: HB_get_history's use case of filtering heartbeats by tag (ExampleHeartbeat_RateByTag)
func (h *Heartbeat) RateByTag(n int, tag int64) (Rate, bool) {
	return rateOf(filterTag(h.History(n), tag))
}

// RateByProducer computes the heart rate of only the records emitted by the
// given registered thread (0 selects direct global beats), over the last n
// global records. With the sharded hot path every global record carries its
// producer, so an observer can ask how fast each worker is contributing to
// the shared history without the workers beating locally too.
//
//hbvet:api -- paper §3: how fast each registered thread contributes to the global history
func (h *Heartbeat) RateByProducer(n int, producer int32) (Rate, bool) {
	return rateOf(filterProducer(h.History(n), producer))
}

// IntervalStats summarizes the inter-beat gaps of a window of records.
//
//hbvet:api -- paper §3: examine the intervals between individual heartbeats
type IntervalStats struct {
	// Beats is the number of records examined.
	Beats int
	// Mean, Min, Max and StdDev describe the gaps between consecutive
	// records.
	Mean, Min, Max, StdDev time.Duration
	// CV is the coefficient of variation (StdDev/Mean): the "erratic"
	// metric used by health classification.
	CV float64
}

// IntervalStats summarizes the gaps of the last window global beats;
// window <= 0 uses the default window. ok is false with fewer than two
// distinct timestamps (see Intervals).
//
//hbvet:api -- paper §3: examine the intervals between individual heartbeats
func (h *Heartbeat) IntervalStats(window int) (IntervalStats, bool) {
	recs := h.History(h.clipWindow(window))
	gaps := Intervals(recs)
	if len(gaps) == 0 {
		return IntervalStats{}, false
	}
	s := stats.Summarize(gaps)
	return IntervalStats{
		Beats:  len(recs),
		Mean:   time.Duration(s.Mean * float64(time.Second)),
		Min:    time.Duration(s.Min * float64(time.Second)),
		Max:    time.Duration(s.Max * float64(time.Second)),
		StdDev: time.Duration(s.StdDev * float64(time.Second)),
		CV:     s.CV(),
	}, true
}
