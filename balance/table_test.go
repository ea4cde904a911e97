package balance

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

func eightNodes(t *testing.T) *Table {
	t.Helper()
	tb := New()
	for i := 0; i < 8; i++ {
		tb.Set(fmt.Sprintf("node%d", i), 1)
	}
	return tb
}

// pickMap snapshots the owner of a fixed key population.
func pickMap(tb *Table, keys int) map[uint64]string {
	m := make(map[uint64]string, keys)
	for k := 0; k < keys; k++ {
		n, ok := tb.Pick(uint64(k))
		if ok {
			m[uint64(k)] = n
		} else {
			m[uint64(k)] = ""
		}
	}
	return m
}

func TestPickEmptyTable(t *testing.T) {
	tb := New()
	if n, ok := tb.Pick(42); ok || n != "" {
		t.Fatalf("empty table picked %q", n)
	}
	tb.Set("a", 0)
	if _, ok := tb.Pick(42); ok {
		t.Fatalf("all-drained table still picked a node")
	}
}

func TestPickDistribution(t *testing.T) {
	tb := eightNodes(t)
	counts := make(map[string]int)
	const keys = 1 << 16
	for k := 0; k < keys; k++ {
		n, ok := tb.Pick(uint64(k))
		if !ok {
			t.Fatalf("no node for key %d", k)
		}
		counts[n]++
	}
	if len(counts) != 8 {
		t.Fatalf("only %d of 8 nodes own keys: %v", len(counts), counts)
	}
	for n, c := range counts {
		frac := float64(c) / keys
		// Key share tracks bucket share; with 1024 buckets the per-node
		// share is 1/8 ± a few percent.
		if frac < 0.08 || frac > 0.17 {
			t.Errorf("%s owns %.3f of keys, want ≈0.125", n, frac)
		}
	}
}

func TestRemoveRemapsMinimally(t *testing.T) {
	tb := eightNodes(t)
	const keys = 1 << 14
	before := pickMap(tb, keys)

	sw := tb.Remove("node3")
	if sw.Old != 1 || sw.New != 0 {
		t.Fatalf("swap weights = %v -> %v, want 1 -> 0", sw.Old, sw.New)
	}
	wantShare := 1.0 / 8
	if math.Abs(sw.Share-wantShare) > 1e-9 {
		t.Fatalf("swap share = %v, want %v", sw.Share, wantShare)
	}

	after := pickMap(tb, keys)
	moved := 0
	for k, was := range before {
		now := after[k]
		if was == now {
			continue
		}
		moved++
		// Minimal disruption: only keys the removed node owned may move.
		if was != "node3" {
			t.Fatalf("key %d moved %s -> %s though node3 was removed", k, was, now)
		}
	}
	frac := float64(moved) / keys
	if frac > 1.5*wantShare {
		t.Errorf("removing 1 of 8 nodes remapped %.3f of keys, want ≤ %.3f", frac, 1.5*wantShare)
	}
	if frac < 0.05 {
		t.Errorf("removing 1 of 8 nodes remapped only %.3f of keys — suspiciously low", frac)
	}
	// The swap's own accounting should agree with the measured movement.
	if math.Abs(sw.Frac()-frac) > 0.02 {
		t.Errorf("swap reports frac %.3f, measured %.3f", sw.Frac(), frac)
	}
}

func TestWeightChangeMovesOnlyChangedNode(t *testing.T) {
	tb := eightNodes(t)
	const keys = 1 << 14
	before := pickMap(tb, keys)

	tb.Set("node5", 0.5)
	mid := pickMap(tb, keys)
	for k, was := range before {
		if now := mid[k]; was != now && was != "node5" {
			t.Fatalf("key %d moved %s -> %s on node5's weight change", k, was, now)
		}
	}

	tb.Set("node5", 1)
	after := pickMap(tb, keys)
	for k, was := range mid {
		if now := after[k]; was != now && now != "node5" {
			t.Fatalf("key %d moved %s -> %s on node5's weight restore", k, was, now)
		}
	}
}

func TestReclaimRestoresIdenticalMapping(t *testing.T) {
	tb := eightNodes(t)
	const keys = 1 << 14
	before := pickMap(tb, keys)

	drain := tb.Set("node2", 0)
	if drain.Remapped == 0 {
		t.Fatalf("draining node2 moved nothing")
	}
	restore := tb.Set("node2", 1)
	if restore.Remapped != drain.Remapped {
		t.Errorf("restore moved %d buckets, drain moved %d — want identical", restore.Remapped, drain.Remapped)
	}
	after := pickMap(tb, keys)
	for k, was := range before {
		if now := after[k]; was != now {
			t.Fatalf("key %d maps to %s after reclaim, was %s — reclaim must restore the exact assignment", k, now, was)
		}
	}
}

func TestRemoveThenReaddRestoresMapping(t *testing.T) {
	tb := eightNodes(t)
	const keys = 1 << 13
	before := pickMap(tb, keys)
	tb.Remove("node6")
	tb.Set("node6", 1)
	after := pickMap(tb, keys)
	for k, was := range before {
		if now := after[k]; was != now {
			t.Fatalf("key %d maps to %s after remove+re-add, was %s", k, now, was)
		}
	}
}

func TestPickZeroAlloc(t *testing.T) {
	tb := eightNodes(t)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := tb.Pick(12345); !ok {
			t.Fatal("pick failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Pick allocates %v/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		if _, ok := tb.PickString("/api/v1/things/42"); !ok {
			t.Fatal("pick failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("PickString allocates %v/op, want 0", allocs)
	}
}

// BenchmarkTableSet is the component row behind hbbench's
// balance.swap_ns_p50: the same swap sequence (each node in turn to half
// weight, then each back to full) over tables of 16, 256 and 2048 nodes.
func BenchmarkTableSet(b *testing.B) {
	for _, n := range []int{16, 256, 2048} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			tb := New()
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("node%d", i)
				tb.Set(names[i], 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.Set(names[i%n], 0.5+0.5*float64((i/n)%2))
			}
		})
	}
}

func TestPickStringStable(t *testing.T) {
	tb := eightNodes(t)
	n1, _ := tb.PickString("session-abcdef")
	tb.Set("other", 0.3) // unrelated membership change
	n2, _ := tb.PickString("session-abcdef")
	if n1 != n2 && n2 != "other" {
		t.Fatalf("key moved %s -> %s on an unrelated node's admission", n1, n2)
	}
}

func TestSwapShareAccounting(t *testing.T) {
	tb := New()
	sw := tb.Set("only", 1)
	if sw.Share != 1 {
		t.Errorf("first node's share = %v, want 1 (the whole key space)", sw.Share)
	}
	if sw.Frac() != 1 {
		t.Errorf("first node's frac = %v, want 1", sw.Frac())
	}
	tb.Set("second", 1)
	sw = tb.Set("second", 0.5)
	// |Δ| / max(before=2, after=1.5) = 0.5/2.
	if math.Abs(sw.Share-0.25) > 1e-9 {
		t.Errorf("share = %v, want 0.25", sw.Share)
	}
}

// TestConcurrentPickDuringSwaps is the -race stress for the COW contract:
// readers hammer Pick while a writer churns weights and membership; every
// pick must return a name that was a member at some point in the churn
// set, and the race detector must stay silent.
func TestConcurrentPickDuringSwaps(t *testing.T) {
	tb := New(WithBuckets(256))
	names := []string{"a", "b", "c", "d", "e"}
	valid := map[string]bool{"": true}
	for _, n := range names {
		tb.Set(n, 1)
		valid[n] = true
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			k := seed
			for !stop.Load() {
				k += 0x9E3779B97F4A7C15
				n, ok := tb.Pick(k)
				if ok && !valid[n] {
					select {
					case errs <- n:
					default:
					}
					return
				}
			}
		}(uint64(g))
	}

	for round := 0; round < 2000; round++ {
		n := names[round%len(names)]
		switch round % 4 {
		case 0:
			tb.Set(n, 0) // drain
		case 1:
			tb.Set(n, 1) // reclaim
		case 2:
			tb.Set(n, 0.5)
		case 3:
			tb.Remove(n)
			tb.Set(n, 1)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case n := <-errs:
		t.Fatalf("Pick returned %q, never a member", n)
	default:
	}
}

// oracle is the full weighted-rendezvous election, kept apart from Table's
// incremental updates: bucket b belongs to the node maximizing
// weight × g(node, b), the first (lowest index) on a tie, with each node's
// draws computed once into its own per-bucket array. The fuzz target holds
// every incremental swap to it bit for bit.
type oracle struct {
	nbuckets int
	scores   map[string][]float64
}

func (o *oracle) rebuild(nodes []string, weights []float64) []int32 {
	assign := emptyAssign(o.nbuckets)
	best := make([]float64, o.nbuckets)
	for i, n := range nodes {
		w := weights[i]
		if w <= 0 {
			continue
		}
		g := o.gscores(n)
		for b := 0; b < o.nbuckets; b++ {
			if s := w * g[b]; s > best[b] {
				best[b] = s
				assign[b] = int32(i)
			}
		}
	}
	return assign
}

func (o *oracle) gscores(node string) []float64 {
	if g, ok := o.scores[node]; ok {
		return g
	}
	g := make([]float64, o.nbuckets)
	h := hashString(node)
	for b := range g {
		v := splitmix64(h + uint64(b+1)*0x9E3779B97F4A7C15)
		u := (float64(v>>11) + 0.5) * (1.0 / (1 << 53))
		g[b] = -1 / math.Log(u)
	}
	o.scores[node] = g
	return g
}

// recount accounts a swap from the two published states alone: every
// bucket compared by owner name, and Share from the total weight before
// and after.
func recount(old, next *tableState, oldW, newW float64) (remapped int, share float64) {
	for b := range next.assign {
		if ownerName(old, old.assign[b]) != ownerName(next, next.assign[b]) {
			remapped++
		}
	}
	var tb, ta float64
	for _, w := range old.weights {
		tb += w
	}
	for _, w := range next.weights {
		ta += w
	}
	if m := math.Max(tb, ta); m > 0 {
		share = math.Abs(newW-oldW) / m
	}
	return remapped, share
}

func ownerName(s *tableState, i int32) string {
	if i < 0 {
		return ""
	}
	return s.nodes[i]
}

// FuzzTableMatchesRebuild decodes bytes into Set and Remove operations
// over at most 64 node names and checks, after every one, that the
// published assignment is exactly the oracle's full election of the same
// (node, weight) set, and that the Swap accounts the change exactly as a
// name-by-name recount does.
//
// Encoding: the first byte picks the bucket count (8, 64 or 1024); then
// each operation is one byte, node index in the low six bits and Remove
// when the top two are zero, else Set with a weight chosen by the next
// byte: 0, 0.25, 0.5, 1, a two-byte fraction of [0,1], or eight raw bytes
// as a float64 (negative, NaN, above 1 and subnormal weights included).
// The seed corpus is under testdata/fuzz/FuzzTableMatchesRebuild.
func FuzzTableMatchesRebuild(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nbuckets := [...]int{8, 64, 1024}[int(data[0])%3]
		data = data[1:]
		tb := New(WithBuckets(nbuckets))
		or := &oracle{nbuckets: nbuckets, scores: make(map[string][]float64)}
		model := make(map[string]float64)
		for op := 0; len(data) > 0; op++ {
			name := fmt.Sprintf("n%02d", data[0]&63)
			remove := data[0]>>6 == 0
			data = data[1:]
			weight := 0.0
			if !remove && len(data) > 0 {
				kind := data[0] % 6
				data = data[1:]
				switch {
				case kind < 4:
					weight = [...]float64{0, 0.25, 0.5, 1}[kind]
				case kind == 4 && len(data) >= 2:
					weight = float64(binary.LittleEndian.Uint16(data)) / math.MaxUint16
					data = data[2:]
				case kind == 5 && len(data) >= 8:
					weight = math.Float64frombits(binary.LittleEndian.Uint64(data))
					data = data[8:]
				}
			}

			old := tb.state.Load()
			oldW := model[name]
			var sw Swap
			if remove {
				sw = tb.Remove(name)
				delete(model, name)
			} else {
				sw = tb.Set(name, weight)
				if weight < 0 || math.IsNaN(weight) {
					weight = 0
				} else if weight > 1 {
					weight = 1
				}
				model[name] = weight
			}
			next := tb.state.Load()

			nodes := make([]string, 0, len(model))
			for n := range model {
				nodes = append(nodes, n)
			}
			sort.Strings(nodes)
			weights := make([]float64, len(nodes))
			for i, n := range nodes {
				weights[i] = model[n]
			}
			if !slices.Equal(next.nodes, nodes) || !slices.Equal(next.weights, weights) {
				t.Fatalf("op %d (%s, remove=%v): table holds %v %v, want %v %v",
					op, name, remove, next.nodes, next.weights, nodes, weights)
			}
			if want := or.rebuild(nodes, weights); !slices.Equal(next.assign, want) {
				for b := range want {
					if next.assign[b] != want[b] {
						t.Fatalf("op %d (%s, remove=%v): bucket %d owned by %q, full election gives %q",
							op, name, remove, b, ownerName(next, next.assign[b]), ownerName(next, want[b]))
					}
				}
			}
			remapped, share := recount(old, next, oldW, weight)
			want := Swap{Node: name, Old: oldW, New: weight, Remapped: remapped, Buckets: nbuckets, Share: share}
			if remove {
				want.New = 0
			}
			if sw != want {
				t.Fatalf("op %d: swap %+v, recount gives %+v", op, sw, want)
			}
		}
	})
}

// TestTiesGoToLowerIndex covers the tie rule no fuzzed name set reaches:
// two nodes with the same draws and weight score equally in every bucket,
// and both the incremental raise and a re-election must hand each bucket
// to the lower index, as the full election does.
func TestTiesGoToLowerIndex(t *testing.T) {
	const nb = 64
	s := &tableState{nodes: []string{"a", "b"}, weights: []float64{0, 1}, hashes: []uint64{7, 7}, assign: emptyAssign(nb)}
	steps := []struct {
		what  string
		step  func() int
		moved int
	}{
		{"b rises alone", func() int { return s.raise(1) }, nb},
		{"a rises to b's weight", func() int { s.weights[0] = 1; return s.raise(0) }, nb},
		{"b rises to a tie again", func() int { return s.raise(1) }, 0},
		{"a falls to a tie", func() int { return s.reelect(0) }, 0},
		{"b re-elects its tied buckets", func() int {
			for b := range s.assign {
				s.assign[b] = 1
			}
			return s.reelect(1)
		}, nb},
	}
	for _, st := range steps {
		if moved := st.step(); moved != st.moved {
			t.Fatalf("%s: moved %d buckets, want %d", st.what, moved, st.moved)
		}
		for b, o := range s.assign {
			if o != s.elect(b) {
				t.Fatalf("%s: bucket %d owned by %d, election gives %d", st.what, b, o, s.elect(b))
			}
		}
	}
	if s.elect(0) != 0 {
		t.Fatalf("a tie elected %d, want the lower index 0", s.elect(0))
	}
}
