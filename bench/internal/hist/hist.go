// Package hist is the benchmark's own latency histogram. It is deliberately
// not internal/loadgen's: the yardstick must not move with the code it
// measures.
//
// The shape is HDR's: values below 2^subBits are counted exactly, larger
// ones fall into 2^subBits linear sub-buckets per power of two, so a bucket
// is never wider than 1/64 of its lower bound. Quantiles interpolate by rank
// inside the bucket, which keeps the error under the bucket width and —
// unlike a bucket midpoint — yields a value with all its digits instead of
// the same bucket label run after run.
package hist

import "math/bits"

const (
	subBits = 6
	subN    = 1 << subBits
	// buckets covers every non-negative int64.
	buckets = (64 - subBits) * subN
)

// Hist counts non-negative int64 samples (negative ones clamp to 0). It is
// not safe for concurrent use: each measuring goroutine owns one and they
// are Merged at the end.
type Hist struct {
	counts   []uint64
	n        uint64
	min, max int64
}

// index maps v to its bucket.
func index(v int64) int {
	if v < subN {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - subBits - 1
	return (shift+1)*subN + int(v>>uint(shift)) - subN
}

// bounds returns bucket i's lowest value and width.
func bounds(i int) (lo, width int64) {
	if i < subN {
		return int64(i), 1
	}
	shift := uint(i/subN - 1)
	return int64(i%subN+subN) << shift, 1 << shift
}

// Record counts one sample.
func (h *Hist) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.counts == nil {
		h.counts = make([]uint64, buckets)
		h.min = v
	}
	h.counts[index(v)]++
	h.n++
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns how many samples were recorded.
func (h *Hist) Count() uint64 { return h.n }

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, buckets)
		h.min = o.min
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// Quantile returns the value below which a share q of the samples fall,
// 0 when empty.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, width := bounds(i)
			v := float64(lo) + float64(width)*(target-cum)/float64(c)
			if v < float64(h.min) {
				v = float64(h.min)
			}
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// Tail returns the highest of the usual tail percentiles that still has at
// least ten samples beyond it, capped at cap, and its value. With fewer than
// twenty samples it falls back to the median.
func (h *Hist) Tail(cap float64) (q, v float64) {
	q = 0.5
	for _, c := range []float64{0.9, 0.95, 0.99, 0.999, 0.9999} {
		if c > cap || float64(h.n)*(1-c) < 10 {
			break
		}
		q = c
	}
	return q, h.Quantile(q)
}
