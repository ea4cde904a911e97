// Package sched generates the benchmark's inputs from its seed: which
// application each synthetic producer beats for, when it beats, when it
// leaves and when it falls silent. Like package hist it is the benchmark's
// own copy (not internal/loadgen): the same seed must yield the same
// schedule on every commit the benchmark is ever run against.
package sched

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
)

// Zipf draws ranks 0..n-1 with P(rank) ∝ 1/(rank+1)^s from a precomputed
// CDF.
type Zipf struct{ cdf []float64 }

// NewZipf builds the sampler; s == 0 is uniform.
func NewZipf(n int, s float64) *Zipf {
	cdf := make([]float64, n)
	var sum float64
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws one rank.
func (z *Zipf) Sample(rng *rand.Rand) int {
	i := sort.SearchFloat64s(z.cdf, rng.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// FleetConfig shapes a synthetic fleet. Time is counted in pump ticks; the
// schedule repeats every CycleTicks, so a run of any length sees the same
// stationary load.
type FleetConfig struct {
	Seed      int64
	Producers int
	Apps      int
	ZipfS     float64
	// PeriodTicks is a producer's beat period: it beats once every
	// PeriodTicks ticks, at a phase drawn from the seed.
	PeriodTicks int
	CycleTicks  int
	// ChurnFrac of the producers leave once per cycle and rejoin later.
	ChurnFrac float64
	// Bursts silence a contiguous BurstFrac share of the producer ids for
	// BurstTicks each, once per cycle. Producer ids are laid out app by
	// app, so a burst silences whole applications — which is what makes
	// a balancer downstream drain and reclaim them.
	Bursts     int
	BurstFrac  float64
	BurstTicks int
}

// Producer is one synthetic producer's fixed schedule.
type Producer struct {
	App  uint16
	Slot uint16 // beats at ticks ≡ Slot (mod PeriodTicks)
	// Away while OffFrom <= tick mod CycleTicks < OffTo (wrapping); equal
	// bounds mean never.
	OffFrom, OffTo uint16
}

// Burst is one correlated silence: producers Lo..Hi-1 are quiet during
// [From, To) of every cycle (wrapping).
type Burst struct {
	From, To uint16
	Lo, Hi   uint32
}

// Fleet is a generated schedule.
type Fleet struct {
	Cfg       FleetConfig
	Producers []Producer
	Bursts    []Burst
	// PerApp is the number of producers each application carries.
	PerApp []int
	slots  [][]uint32 // producer ids by Slot, ascending
}

// NewFleet draws the whole schedule from cfg.Seed, in a fixed order: app
// assignment, phases, churn, bursts.
func NewFleet(cfg FleetConfig) *Fleet {
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := &Fleet{Cfg: cfg, Producers: make([]Producer, cfg.Producers), PerApp: make([]int, cfg.Apps)}
	z := NewZipf(cfg.Apps, cfg.ZipfS)
	for range f.Producers {
		f.PerApp[z.Sample(rng)]++
	}
	id := 0
	for app, n := range f.PerApp {
		for ; n > 0; n-- {
			f.Producers[id].App = uint16(app)
			id++
		}
	}
	f.slots = make([][]uint32, cfg.PeriodTicks)
	for i := range f.Producers {
		s := rng.Intn(cfg.PeriodTicks)
		f.Producers[i].Slot = uint16(s)
		f.slots[s] = append(f.slots[s], uint32(i))
	}
	for n := int(cfg.ChurnFrac * float64(cfg.Producers)); n > 0; n-- {
		p := &f.Producers[rng.Intn(cfg.Producers)]
		from := rng.Intn(cfg.CycleTicks)
		away := cfg.CycleTicks/20 + rng.Intn(cfg.CycleTicks/5)
		p.OffFrom, p.OffTo = uint16(from), uint16((from+away)%cfg.CycleTicks)
	}
	width := int(cfg.BurstFrac * float64(cfg.Producers))
	for i := 0; i < cfg.Bursts; i++ {
		lo := rng.Intn(cfg.Producers - width + 1)
		from := rng.Intn(cfg.CycleTicks)
		f.Bursts = append(f.Bursts, Burst{
			From: uint16(from), To: uint16((from + cfg.BurstTicks) % cfg.CycleTicks),
			Lo: uint32(lo), Hi: uint32(lo + width),
		})
	}
	return f
}

func within(t, from, to uint16) bool {
	if from <= to {
		return from <= t && t < to
	}
	return t >= from || t < to
}

// Tick adds to counts[app] the beats due at tick k and returns their total.
func (f *Fleet) Tick(k int, counts []int) int {
	t := uint16(k % f.Cfg.CycleTicks)
	var quiet []Burst
	for _, b := range f.Bursts {
		if within(t, b.From, b.To) {
			quiet = append(quiet, b)
		}
	}
	total := 0
next:
	for _, id := range f.slots[k%f.Cfg.PeriodTicks] {
		p := f.Producers[id]
		if p.OffFrom != p.OffTo && within(t, p.OffFrom, p.OffTo) {
			continue
		}
		for _, b := range quiet {
			if b.Lo <= id && id < b.Hi {
				continue next
			}
		}
		counts[p.App]++
		total++
	}
	return total
}

// Encode serialises the schedule; equal seeds must give equal bytes.
func (f *Fleet) Encode() []byte {
	out := make([]byte, 0, 8*len(f.Producers)+16*len(f.Bursts))
	for _, p := range f.Producers {
		out = binary.LittleEndian.AppendUint16(out, p.App)
		out = binary.LittleEndian.AppendUint16(out, p.Slot)
		out = binary.LittleEndian.AppendUint16(out, p.OffFrom)
		out = binary.LittleEndian.AppendUint16(out, p.OffTo)
	}
	for _, b := range f.Bursts {
		out = binary.LittleEndian.AppendUint16(out, b.From)
		out = binary.LittleEndian.AppendUint16(out, b.To)
		out = binary.LittleEndian.AppendUint32(out, b.Lo)
		out = binary.LittleEndian.AppendUint32(out, b.Hi)
	}
	return out
}

// Order returns a seeded permutation of 0..n-1: the round-robin order in
// which the paced and saturated workloads visit their applications.
func Order(seed int64, n int) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}
