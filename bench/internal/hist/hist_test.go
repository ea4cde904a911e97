package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestBucketsPartitionTheLine(t *testing.T) {
	next := int64(0)
	for i := 0; i < buckets; i++ {
		lo, width := bounds(i)
		if lo != next {
			t.Fatalf("bucket %d starts at %d, want %d", i, lo, next)
		}
		if index(lo) != i || index(lo+width-1) != i {
			t.Fatalf("bucket %d [%d,+%d) does not index back to itself", i, lo, width)
		}
		next = lo + width
		if next < 0 {
			return // ran off the top of int64: every value is covered
		}
	}
}

func TestQuantileErrorWithinTwoPercent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(1_000_000) },
		"lognormal": func() int64 { return int64(math.Exp(rng.NormFloat64()*1.5 + 10)) },
		"bimodal": func() int64 {
			if rng.Intn(10) == 0 {
				return 5_000_000 + rng.Int63n(1_000_000)
			}
			return 80_000 + rng.Int63n(20_000)
		},
	}
	for name, draw := range shapes {
		var h Hist
		vals := make([]int64, 200_000)
		for i := range vals {
			vals[i] = draw()
			h.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
			want := float64(vals[int(q*float64(len(vals)))])
			got := h.Quantile(q)
			if math.Abs(got-want) > 0.02*want {
				t.Errorf("%s q=%v: got %.1f want %.1f (error %.2f%%)", name, q, got, want, 100*math.Abs(got-want)/want)
			}
		}
	}
}

func TestMergeEqualsRecordingTogether(t *testing.T) {
	var a, b, both Hist
	for i := int64(1); i <= 1000; i++ {
		if i%2 == 0 {
			a.Record(i * 37)
		} else {
			b.Record(i * 37)
		}
		both.Record(i * 37)
	}
	a.Merge(&b)
	for _, q := range []float64{0.1, 0.5, 0.99} {
		if a.Quantile(q) != both.Quantile(q) {
			t.Errorf("q=%v: merged %v, together %v", q, a.Quantile(q), both.Quantile(q))
		}
	}
	if a.Count() != 1000 || a.Quantile(1) != 37000 {
		t.Errorf("count %d max %v", a.Count(), a.Quantile(1))
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	var h Hist
	for i := int64(0); i < 150; i++ {
		h.Record(i)
	}
	if q, _ := h.Tail(0.99); q != 0.9 {
		t.Errorf("150 samples: tail percentile %v, want 0.9", q)
	}
	for i := int64(0); i < 2000; i++ {
		h.Record(i)
	}
	if q, _ := h.Tail(0.99); q != 0.99 {
		t.Errorf("2150 samples capped at p99: tail percentile %v", q)
	}
	var empty Hist
	if q, v := empty.Tail(0.99); q != 0.5 || v != 0 {
		t.Errorf("empty: %v %v", q, v)
	}
}
