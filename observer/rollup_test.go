package observer

import (
	"math/rand"
	"testing"
	"time"

	"repro/heartbeat"
)

// recsAt builds records with the given sequence numbers, spaced evenly by
// step starting at base.
func recsAt(base time.Time, step time.Duration, seqs ...uint64) []heartbeat.Record {
	out := make([]heartbeat.Record, len(seqs))
	for i, s := range seqs {
		out[i] = heartbeat.Record{Seq: s, Time: base.Add(time.Duration(i) * step)}
	}
	return out
}

func TestRollupWindowStats(t *testing.T) {
	base := time.Unix(1000, 0)
	w := NewRollupWindow("app")
	w.Absorb(Batch{Records: recsAt(base, 100*time.Millisecond, 1, 2, 3, 4, 5), Count: 5})

	r := w.Flush(base, base.Add(time.Second))
	if r.App != "app" || r.Records != 5 || r.Missed != 0 || r.Count != 5 {
		t.Fatalf("rollup basics wrong: %+v", r)
	}
	if !r.RateOK {
		t.Fatal("RateOK false with 5 records")
	}
	// 4 beats over 400ms = 10/s.
	if r.Rate.PerSec < 9.99 || r.Rate.PerSec > 10.01 {
		t.Fatalf("rate %v, want 10/s", r.Rate.PerSec)
	}
	if r.Rate.FirstSeq != 1 || r.Rate.LastSeq != 5 || r.Rate.Beats != 5 {
		t.Fatalf("rate bounds wrong: %+v", r.Rate)
	}
	if r.MinInterval != 100*time.Millisecond || r.MaxInterval != 100*time.Millisecond || r.MeanInterval != 100*time.Millisecond {
		t.Fatalf("intervals wrong: %v %v %v", r.MinInterval, r.MaxInterval, r.MeanInterval)
	}

	// The next window is empty: silence is reported, not elided.
	r2 := w.Flush(base.Add(time.Second), base.Add(2*time.Second))
	if r2.Records != 0 || r2.RateOK || r2.MinInterval != 0 {
		t.Fatalf("silent window not silent: %+v", r2)
	}
	if r2.Count != 5 {
		t.Fatalf("cumulative count lost across flush: %d", r2.Count)
	}
}

// The interval spanning two windows is charged to the later window, so
// downsampled interval stats cover the same gaps a raw Window sees.
func TestRollupWindowIntervalContinuity(t *testing.T) {
	base := time.Unix(1000, 0)
	w := NewRollupWindow("app")
	w.Absorb(Batch{Records: recsAt(base, 10*time.Millisecond, 1, 2)})
	w.Flush(base, base.Add(time.Second))

	// One record, 40ms after the previous window's last: the window has one
	// interval even though it has only one record.
	w.Absorb(Batch{Records: []heartbeat.Record{{Seq: 3, Time: base.Add(50 * time.Millisecond)}}})
	r := w.Flush(base.Add(time.Second), base.Add(2*time.Second))
	if r.Records != 1 {
		t.Fatalf("records %d, want 1", r.Records)
	}
	if r.RateOK {
		t.Fatal("RateOK with a single record")
	}
	if r.Rate.FirstSeq != 3 || r.Rate.LastSeq != 3 {
		t.Fatalf("seq bounds wrong: %+v", r.Rate)
	}
	if r.MeanInterval != 40*time.Millisecond {
		t.Fatalf("cross-window interval %v, want 40ms", r.MeanInterval)
	}
}

func TestRollupWindowMissed(t *testing.T) {
	w := NewRollupWindow("app")
	w.Absorb(Batch{Missed: 7, Count: 7})
	r := w.Flush(time.Time{}, time.Time{})
	if r.Missed != 7 || r.Records != 0 {
		t.Fatalf("missed-only window wrong: %+v", r)
	}
	// Missed resets with the window.
	if r2 := w.Flush(time.Time{}, time.Time{}); r2.Missed != 0 {
		t.Fatalf("missed leaked across flush: %+v", r2)
	}
}

func TestDownsamplerPerApp(t *testing.T) {
	base := time.Unix(1000, 0)
	d := NewDownsampler()
	d.Track("silent")
	d.Absorb("a", Batch{Records: recsAt(base, time.Millisecond, 1, 2, 3), Count: 3})
	d.Absorb("b", Batch{Records: recsAt(base, time.Millisecond, 1, 2), Count: 2, Missed: 4})

	rs := d.Flush(base, base.Add(time.Second))
	if len(rs) != 3 {
		t.Fatalf("got %d rollups, want 3 (incl. the silent app)", len(rs))
	}
	byApp := map[string]Rollup{}
	for _, r := range rs {
		byApp[r.App] = r
	}
	if byApp["a"].Records != 3 || byApp["b"].Records != 2 || byApp["b"].Missed != 4 {
		t.Fatalf("per-app accounting wrong: %+v", byApp)
	}
	if byApp["silent"].Records != 0 || byApp["silent"].RateOK {
		t.Fatalf("silent app not silent: %+v", byApp["silent"])
	}
	// Sum of records+missed is conserved per flush: the rollup tier never
	// hides loss (the raw-parity invariant the relay tests lean on).
	var recs, missed uint64
	for _, r := range rs {
		recs, missed = recs+r.Records, missed+r.Missed
	}
	if recs != 5 || missed != 4 {
		t.Fatalf("conservation broken: records %d missed %d", recs, missed)
	}
}

func TestRollupSilent(t *testing.T) {
	if !(Rollup{}).Silent() {
		t.Fatal("empty window not silent")
	}
	if (Rollup{Records: 1}).Silent() {
		t.Fatal("window with records judged silent")
	}
	// Losses prove publication: an all-lapped window is alive, not silent
	// — the distinction that keeps a restarting producer routable.
	if (Rollup{Missed: 7}).Silent() {
		t.Fatal("all-lapped window judged silent")
	}
}

func TestRollupObservedRate(t *testing.T) {
	r := Rollup{Rate: heartbeat.Rate{PerSec: 42}, RateOK: true, MeanInterval: time.Second}
	if got := r.ObservedRate(); got != 42 {
		t.Fatalf("ObservedRate = %v, want the windowed rate", got)
	}
	// A 1-record window has no windowed rate but does carry the interval
	// spanning from the previous window.
	r = Rollup{MeanInterval: 250 * time.Millisecond}
	if got := r.ObservedRate(); got != 4 {
		t.Fatalf("ObservedRate = %v, want 4 from the mean interval", got)
	}
	if got := (Rollup{}).ObservedRate(); got != 0 {
		t.Fatalf("ObservedRate with no evidence = %v, want 0", got)
	}
}

// perRecordWindow is RollupWindow as it was before Absorb went per batch:
// every record copied into first/last and every gap taken with time.Time.Sub.
// Kept as the reference the batch form must reproduce exactly.
type perRecordWindow struct {
	records, missed, count, intervals uint64
	first, last                       heartbeat.Record
	prev                              time.Time
	prevOK                            bool
	sumIv, minIv, maxIv               time.Duration
}

func (w *perRecordWindow) absorb(b Batch) {
	w.missed += b.Missed
	if b.Count > 0 {
		w.count = b.Count
	}
	for _, r := range b.Records {
		if w.records == 0 {
			w.first = r
		}
		w.last = r
		w.records++
		if w.prevOK {
			iv := r.Time.Sub(w.prev)
			if iv < 0 {
				iv = 0
			}
			if w.intervals == 0 || iv < w.minIv {
				w.minIv = iv
			}
			if iv > w.maxIv {
				w.maxIv = iv
			}
			w.sumIv += iv
			w.intervals++
		}
		w.prev, w.prevOK = r.Time, true
	}
}

func (w *perRecordWindow) flush(app string, start, end time.Time) Rollup {
	r := Rollup{App: app, Start: start, End: end, Records: w.records, Missed: w.missed, Count: w.count}
	if w.records >= 2 {
		if span := w.last.Time.Sub(w.first.Time); span > 0 {
			r.Rate = heartbeat.Rate{PerSec: float64(w.records-1) / span.Seconds(), Beats: int(w.records), Span: span}
			r.RateOK = true
		}
	}
	if w.records >= 1 {
		r.Rate.FirstSeq, r.Rate.LastSeq = w.first.Seq, w.last.Seq
	}
	if w.intervals > 0 {
		r.MinInterval, r.MaxInterval, r.MeanInterval = w.minIv, w.maxIv, w.sumIv/time.Duration(w.intervals)
	}
	w.records, w.missed = 0, 0
	w.first, w.last = heartbeat.Record{}, heartbeat.Record{}
	w.intervals, w.sumIv, w.minIv, w.maxIv = 0, 0, 0, 0
	return r
}

// One record stream — repeated stamps, backward stamps, long gaps — cut into
// random batches (empty ones included) and random windows must roll up the
// same per batch as per record: the gap carried across Flush and the clamp of
// negative gaps included.
func TestRollupWindowAbsorbMatchesPerRecordReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 200; trial++ {
		got, want := NewRollupWindow("app"), &perRecordWindow{}
		nanos := int64(1_700_000_000_000_000_000)
		seq := uint64(rng.Intn(5))
		start := time.Unix(0, nanos)
		for step := 0; step < 40; step++ {
			if rng.Intn(4) == 0 {
				end := time.Unix(0, nanos)
				if g, w := got.Flush(start, end), want.flush("app", start, end); g != w {
					t.Fatalf("trial %d step %d:\n batch      %+v\n per record %+v", trial, step, g, w)
				}
				start = end
				continue
			}
			b := Batch{Missed: uint64(rng.Intn(3)), Count: uint64(rng.Intn(2)) * seq}
			for n := rng.Intn(6); n > 0; n-- {
				switch rng.Intn(5) {
				case 0: // the stamp repeats
				case 1:
					nanos -= int64(rng.Intn(500)) // another producer's older stamp
				default:
					nanos += int64(rng.Intn(2_000_000))
				}
				seq += 1 + uint64(rng.Intn(2))
				b.Records = append(b.Records, heartbeat.Record{Seq: seq, Time: time.Unix(0, nanos), Tag: int64(n), Producer: int32(n % 3)})
			}
			got.Absorb(b)
			want.absorb(b)
			if got.Active() != (want.records > 0 || want.missed > 0) {
				t.Fatalf("trial %d step %d: Active = %v", trial, step, got.Active())
			}
		}
	}
}
