package balance

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// defaultBuckets is the bucket-table size used by New unless WithBuckets
// overrides it. 1024 buckets keep the remap granularity under 0.1% per
// bucket while a full rebuild stays a few thousand float multiplies.
const defaultBuckets = 1024

// Option configures a Table.
type Option func(*Table)

// WithBuckets sets the bucket-table size, rounded up to a power of two
// (minimum 8). More buckets mean finer-grained weight resolution and a
// remap fraction closer to its expectation; the per-request cost does not
// change.
func WithBuckets(n int) Option {
	return func(t *Table) {
		if n < 8 {
			n = 8
		}
		p := 8
		for p < n {
			p <<= 1
		}
		t.nbuckets = p
	}
}

// Table is the lock-free selector: a fixed space of hash buckets, each
// owned by one node, assigned by weighted rendezvous hashing. Readers call
// Pick, which is one atomic pointer load plus a hash — no locks, no
// allocations, safe from any number of goroutines. Writers (Set, Remove)
// serialize among themselves, rebuild the assignment copy-on-write, and
// publish it with a single atomic swap; a Pick racing a swap sees either
// the old table or the new one, never a mix.
//
// Weighted rendezvous gives two properties the balancer leans on:
//
//   - Minimal disruption: changing one node's weight moves only buckets
//     that node gains or loses — never a bucket between two unchanged
//     nodes. The expected moved fraction is |Δw|/total weight.
//   - Exact reclaim: the assignment is a pure function of the
//     (node, weight) set, so restoring a drained node to its old weight
//     restores the identical bucket assignment it had before.
type Table struct {
	nbuckets int

	state atomic.Pointer[tableState]

	// mu serializes writers; the cached per-node score arrays are only
	// touched under it.
	mu     sync.Mutex
	scores map[string][]float64
}

// tableState is one immutable published assignment.
type tableState struct {
	nodes   []string  // sorted
	weights []float64 // parallel to nodes
	assign  []int32   // bucket -> index into nodes; -1 when no node has weight
}

// Swap describes one published table change: the node whose weight
// changed, its old and new weight, and exactly how much of the key space
// moved owner as a result.
type Swap struct {
	Node     string
	Old, New float64
	// Remapped counts buckets whose owner changed, out of Buckets total.
	Remapped int
	Buckets  int
	// Share is |New-Old| divided by the larger of the total weight before
	// and after — the expected fraction of the key space this change
	// moves. Frac() should land near it; invariant checks bound Frac()
	// by a small multiple of Share.
	Share float64
}

// Frac returns the measured fraction of the key space the swap remapped.
func (s Swap) Frac() float64 {
	if s.Buckets == 0 {
		return 0
	}
	return float64(s.Remapped) / float64(s.Buckets)
}

// New returns an empty table. Pick on an empty table reports no node.
func New(opts ...Option) *Table {
	t := &Table{nbuckets: defaultBuckets, scores: make(map[string][]float64)}
	for _, o := range opts {
		o(t)
	}
	t.state.Store(&tableState{assign: emptyAssign(t.nbuckets)})
	return t
}

func emptyAssign(n int) []int32 {
	a := make([]int32, n)
	for i := range a {
		a[i] = -1
	}
	return a
}

// Pick returns the node owning key's bucket. It is the per-request path:
// one atomic load, one hash, one index — lock-free and allocation-free.
// ok is false when no node currently holds weight.
//
//hbvet:hotpath
func (t *Table) Pick(key uint64) (node string, ok bool) {
	s := t.state.Load()
	i := s.assign[splitmix64(key)&uint64(len(s.assign)-1)]
	if i < 0 {
		return "", false
	}
	return s.nodes[i], true
}

// PickString is Pick over a string key (an URL path, a session id),
// hashed with FNV-1a — still allocation-free.
//
//hbvet:hotpath
func (t *Table) PickString(key string) (node string, ok bool) {
	return t.Pick(hashString(key))
}

// Set gives node the given weight (clamped to [0,1]; a new node is added,
// weight 0 keeps it as a member owning nothing — a drain) and publishes
// the rebuilt table. The returned Swap reports what moved.
func (t *Table) Set(node string, weight float64) Swap {
	if weight < 0 || math.IsNaN(weight) {
		weight = 0
	} else if weight > 1 {
		weight = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	old := t.state.Load()
	nodes, weights, oldW := withWeight(old, node, weight)
	return t.publish(old, nodes, weights, node, oldW, weight)
}

// Remove drops node from the table entirely and publishes the rebuilt
// assignment. Equivalent to Set(node, 0) for routing purposes; Remove
// additionally forgets the node and frees its cached scores.
//
//hbvet:api -- user need: decommission a node (membership, not health); Updater.Forget calls it
func (t *Table) Remove(node string) Swap {
	t.mu.Lock()
	defer t.mu.Unlock()

	old := t.state.Load()
	oldW := 0.0
	nodes := make([]string, 0, len(old.nodes))
	weights := make([]float64, 0, len(old.nodes))
	for i, n := range old.nodes {
		if n == node {
			oldW = old.weights[i]
			continue
		}
		nodes = append(nodes, n)
		weights = append(weights, old.weights[i])
	}
	delete(t.scores, node)
	return t.publish(old, nodes, weights, node, oldW, 0)
}

// withWeight returns old's membership with node set to weight, inserting
// it in sorted position when new. oldW is the node's previous weight.
func withWeight(old *tableState, node string, weight float64) (nodes []string, weights []float64, oldW float64) {
	i := sort.SearchStrings(old.nodes, node)
	if i < len(old.nodes) && old.nodes[i] == node {
		oldW = old.weights[i]
		nodes = append([]string(nil), old.nodes...)
		weights = append([]float64(nil), old.weights...)
		weights[i] = weight
		return nodes, weights, oldW
	}
	nodes = make([]string, 0, len(old.nodes)+1)
	weights = make([]float64, 0, len(old.nodes)+1)
	nodes = append(append(nodes, old.nodes[:i]...), node)
	nodes = append(nodes, old.nodes[i:]...)
	weights = append(append(weights, old.weights[:i]...), weight)
	weights = append(weights, old.weights[i:]...)
	return nodes, weights, 0
}

// publish rebuilds the assignment for the new membership, swaps it in,
// and accounts the change against the previous state. Callers hold t.mu.
func (t *Table) publish(old *tableState, nodes []string, weights []float64, node string, oldW, newW float64) Swap {
	next := &tableState{nodes: nodes, weights: weights, assign: t.rebuild(nodes, weights)}
	remapped := 0
	for b := range next.assign {
		if ownerName(old, old.assign[b]) != ownerName(next, next.assign[b]) {
			remapped++
		}
	}
	t.state.Store(next)

	var tb, ta float64
	for _, w := range old.weights {
		tb += w
	}
	for _, w := range weights {
		ta += w
	}
	share := 0.0
	if m := math.Max(tb, ta); m > 0 {
		share = math.Abs(newW-oldW) / m
	}
	return Swap{Node: node, Old: oldW, New: newW, Remapped: remapped, Buckets: t.nbuckets, Share: share}
}

func ownerName(s *tableState, i int32) string {
	if i < 0 {
		return ""
	}
	return s.nodes[i]
}

// rebuild computes the weighted-rendezvous assignment: bucket b belongs to
// the node maximizing weight × g(node, b), where g is a deterministic
// per-(node, bucket) draw from an exponential-like distribution
// (-1/ln(u), u uniform in (0,1)). Scores of unchanged nodes never change,
// which is what makes disruption minimal and reclaim exact. Callers hold
// t.mu (the score cache).
func (t *Table) rebuild(nodes []string, weights []float64) []int32 {
	assign := emptyAssign(t.nbuckets)
	best := make([]float64, t.nbuckets)
	for i, n := range nodes {
		w := weights[i]
		if w <= 0 {
			continue
		}
		g := t.gscores(n)
		for b := 0; b < t.nbuckets; b++ {
			if s := w * g[b]; s > best[b] {
				best[b] = s
				assign[b] = int32(i)
			}
		}
	}
	return assign
}

// gscores returns node's cached per-bucket rendezvous draws, computing
// them once per node name. Deterministic: recomputing after eviction (or
// in a different process) yields the same draws.
func (t *Table) gscores(node string) []float64 {
	if g, ok := t.scores[node]; ok {
		return g
	}
	g := make([]float64, t.nbuckets)
	h := hashString(node)
	for b := range g {
		v := splitmix64(h + uint64(b+1)*0x9E3779B97F4A7C15)
		// u strictly inside (0,1): 53 mantissa bits, offset by half an ulp.
		u := (float64(v>>11) + 0.5) * (1.0 / (1 << 53))
		g[b] = -1 / math.Log(u)
	}
	t.scores[node] = g
	return g
}

// Weights returns a copy of the current node → weight map.
func (t *Table) Weights() map[string]float64 {
	s := t.state.Load()
	m := make(map[string]float64, len(s.nodes))
	for i, n := range s.nodes {
		m[n] = s.weights[i]
	}
	return m
}

// splitmix64 is the SplitMix64 finalizer: a full-avalanche mix of one
// 64-bit word, used both to spread Pick keys across buckets and to derive
// the per-(node, bucket) rendezvous draws.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hashString is FNV-1a over the key's bytes — allocation-free on the Pick
// path.
func hashString(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
