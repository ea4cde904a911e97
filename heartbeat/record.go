package heartbeat

import "time"

// Record is a single registered heartbeat. Each heartbeat is automatically
// stamped with the current time and the identity of its producer; the tag is
// free-form application data (frame type, sequence number, phase id, ...).
type Record struct {
	// Seq is the 1-based position of this record in its history
	// (global or per-thread). Sequence numbers are dense: record n+1 was
	// produced after record n. Global sequence numbers are assigned when
	// the aggregator merges per-thread shards (in timestamp order, ties
	// broken by shard registration order), so under concurrent producers
	// they order records as merged, not as raced.
	Seq uint64
	// Time is the timestamp assigned when the heartbeat was registered.
	Time time.Time
	// Tag is the caller-supplied tag (0 for plain Beat calls).
	Tag int64
	// Producer identifies the registered thread handle that emitted the
	// record, or 0 for records emitted on the global handle directly.
	Producer int32
}

// Rate is a heart-rate measurement derived from a window of records.
type Rate struct {
	// PerSec is the average heart rate in beats per second: (n-1) beats
	// over the span between the first and last record of the window.
	PerSec float64
	// Beats is the number of records the measurement used (>= 2).
	Beats int
	// Span is the elapsed time between the first and last record used.
	Span time.Duration
	// FirstSeq and LastSeq delimit the window.
	FirstSeq, LastSeq uint64
}

// rateOf computes the heart rate over recs (oldest to newest).
// It returns ok == false when fewer than two records are available or the
// span is not positive.
func rateOf(recs []Record) (Rate, bool) {
	if len(recs) < 2 {
		return Rate{}, false
	}
	first, last := recs[0], recs[len(recs)-1]
	span := last.Time.Sub(first.Time)
	if span <= 0 {
		return Rate{}, false
	}
	return Rate{
		PerSec:   float64(len(recs)-1) / span.Seconds(),
		Beats:    len(recs),
		Span:     span,
		FirstSeq: first.Seq,
		LastSeq:  last.Seq,
	}, true
}

// Intervals returns the inter-beat gaps of recs (oldest to newest), in
// seconds. A run of k records sharing one stamp — a clock coarser than the
// beat rate, or a Thread serving several beats from one reading — is read as
// evenly spread over the time d to the next distinct stamp: k gaps of d/k,
// not k−1 zeros and one d, which would read a steady heartbeat as erratic. A
// trailing run has no later stamp to be measured against and contributes
// nothing, so fewer than len(recs)−1 gaps may come back. Negative gaps
// (possible between concurrent producers) are clamped to zero.
func Intervals(recs []Record) []float64 {
	if len(recs) < 2 {
		return nil
	}
	out := make([]float64, 0, len(recs)-1)
	start := 0 // first record of the run being measured
	for i := 1; i < len(recs); i++ {
		d := recs[i].Time.Sub(recs[start].Time).Seconds()
		if d == 0 {
			continue
		}
		if d < 0 {
			d = 0
		}
		for k := i - start; start < i; start++ {
			out = append(out, d/float64(k))
		}
	}
	return out
}
