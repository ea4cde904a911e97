package heartbeat_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/clock"
	"repro/heartbeat"
)

// refModel is the single-lock reference the sharded store is checked
// against: a plain slice behind the paper's "one mutex around everything"
// semantics. The differential test drives identical deterministic beat
// schedules through both and demands identical observable statistics.
type refModel struct {
	window   int
	capacity int
	recs     []heartbeat.Record
}

func (m *refModel) beat(now time.Time, tag int64, producer int32) {
	m.recs = append(m.recs, heartbeat.Record{
		Seq:      uint64(len(m.recs) + 1),
		Time:     time.Unix(0, now.UnixNano()),
		Tag:      tag,
		Producer: producer,
	})
}

func (m *refModel) count() uint64 { return uint64(len(m.recs)) }

func (m *refModel) history(n int) []heartbeat.Record {
	if n <= 0 {
		return nil
	}
	if n > m.capacity {
		n = m.capacity
	}
	if n > len(m.recs) {
		n = len(m.recs)
	}
	return m.recs[len(m.recs)-n:]
}

func (m *refModel) clipWindow(w int) int {
	if w <= 0 {
		return m.window
	}
	if w > m.capacity {
		return m.capacity
	}
	return w
}

func sameRecords(a, b []heartbeat.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Seq != b[i].Seq || a[i].Tag != b[i].Tag ||
			a[i].Producer != b[i].Producer ||
			a[i].Time.UnixNano() != b[i].Time.UnixNano() {
			return false
		}
	}
	return true
}

// TestShardedMatchesSingleLockReference runs identical beat schedules —
// per-thread global beats, direct beats, tags, and interleaved reads —
// through the sharded aggregated store and the serialized reference model,
// and asserts equal counts, histories, window rates, and filtered rates at
// every checkpoint. The clock always advances between beats, so the
// reference's program order is the unique timestamp order the merge must
// reproduce.
func TestShardedMatchesSingleLockReference(t *testing.T) {
	for _, variant := range []struct {
		name string
		opts []heartbeat.Option
	}{
		{"lockfree-store", nil},
		{"locked-store", []heartbeat.Option{heartbeat.WithLockedStore()}},
	} {
		t.Run(variant.name, func(t *testing.T) {
			const (
				window   = 7
				capacity = 64
				threads  = 4
				ops      = 6000
			)
			clk := clock.NewVirtual()
			opts := append([]heartbeat.Option{
				heartbeat.WithClock(clk),
				heartbeat.WithCapacity(capacity),
				heartbeat.WithShardCapacity(512),
			}, variant.opts...)
			hb, err := heartbeat.New(window, opts...)
			if err != nil {
				t.Fatal(err)
			}
			ref := &refModel{window: hb.Window(), capacity: capacity}
			trs := make([]*heartbeat.Thread, threads)
			for i := range trs {
				trs[i] = hb.Thread("w")
			}

			check := func(step int) {
				t.Helper()
				if got, want := hb.Count(), ref.count(); got != want {
					t.Fatalf("step %d: Count = %d, want %d", step, got, want)
				}
				for _, n := range []int{1, 5, capacity / 2, capacity, capacity + 50} {
					if got, want := hb.History(n), ref.history(n); !sameRecords(got, want) {
						t.Fatalf("step %d: History(%d) diverged:\n got %+v\nwant %+v", step, n, got, want)
					}
				}
				for _, w := range []int{0, 2, 5, 16, capacity, capacity + 9} {
					gr, gok := hb.RateDetail(w)
					wr, wok := rateRef(ref.history(ref.clipWindow(w)))
					if gok != wok || gr != wr {
						t.Fatalf("step %d: RateDetail(%d) = %+v/%v, want %+v/%v", step, w, gr, gok, wr, wok)
					}
				}
				for tag := int64(0); tag < 4; tag++ {
					gr, gok := hb.RateByTag(capacity, tag)
					wr, wok := rateRef(filterTag(ref.history(capacity), tag))
					if gok != wok || gr != wr {
						t.Fatalf("step %d: RateByTag(%d) diverged", step, tag)
					}
				}
				for p := int32(0); p <= threads; p++ {
					gr, gok := hb.RateByProducer(capacity, p)
					wr, wok := rateRef(filterProducer(ref.history(capacity), p))
					if gok != wok || gr != wr {
						t.Fatalf("step %d: RateByProducer(%d) diverged", step, p)
					}
				}
			}

			rng := rand.New(rand.NewSource(42))
			for step := 0; step < ops; step++ {
				clk.Advance(time.Duration(rng.Intn(5_000_000) + 1))
				tag := int64(rng.Intn(4))
				switch k := rng.Intn(10); {
				case k < 7: // sharded per-thread global beat
					i := rng.Intn(threads)
					trs[i].GlobalBeatTag(tag)
					ref.beat(clk.Now(), tag, trs[i].ID())
				case k < 9: // direct beat on the global handle
					hb.BeatTag(tag)
					ref.beat(clk.Now(), tag, 0)
				default:
					check(step)
				}
			}
			// A long unread stretch deep enough to trigger the lazy
			// backlog discard, then a final full comparison.
			for i := 0; i < 3000; i++ {
				clk.Advance(time.Duration(rng.Intn(1000) + 1))
				w := rng.Intn(threads)
				tag := int64(rng.Intn(4))
				trs[w].GlobalBeatTag(tag)
				ref.beat(clk.Now(), tag, trs[w].ID())
			}
			check(ops)
		})
	}
}

// rateRef recomputes the windowed rate exactly as the package defines it.
func rateRef(recs []heartbeat.Record) (heartbeat.Rate, bool) {
	if len(recs) < 2 {
		return heartbeat.Rate{}, false
	}
	first, last := recs[0], recs[len(recs)-1]
	span := last.Time.Sub(first.Time)
	if span <= 0 {
		return heartbeat.Rate{}, false
	}
	return heartbeat.Rate{
		PerSec:   float64(len(recs)-1) / span.Seconds(),
		Beats:    len(recs),
		Span:     span,
		FirstSeq: first.Seq,
		LastSeq:  last.Seq,
	}, true
}

func filterTag(recs []heartbeat.Record, tag int64) []heartbeat.Record {
	var out []heartbeat.Record
	for _, r := range recs {
		if r.Tag == tag {
			out = append(out, r)
		}
	}
	return out
}

func filterProducer(recs []heartbeat.Record, p int32) []heartbeat.Record {
	var out []heartbeat.Record
	for _, r := range recs {
		if r.Producer == p {
			out = append(out, r)
		}
	}
	return out
}
