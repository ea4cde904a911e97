package balance

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// defaultBuckets is the bucket-table size used by New unless WithBuckets
// overrides it. 1024 buckets keep the remap granularity under 0.1% per
// bucket. A swap's cost grows with it: a rise draws twice per bucket, a
// fall draws once per node for each bucket the changed node owned (see
// Set).
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
// serialize among themselves, update a copy of the assignment in only the
// buckets the change can move, and publish it with a single atomic swap; a
// Pick racing a swap sees either the old table or the new one, never a
// mix.
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

	// mu serializes writers.
	mu sync.Mutex
}

// tableState is one immutable published assignment.
type tableState struct {
	nodes   []string  // sorted
	weights []float64 // parallel to nodes
	hashes  []uint64  // parallel to nodes: hashString(node), the seed of its draws
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
	t := &Table{nbuckets: defaultBuckets}
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
// the updated table. The returned Swap reports what moved.
//
// Only the changed node's score moves, so only it can gain or lose
// buckets: a rise compares its new score with each bucket's owner, and a
// fall re-elects just the buckets it owned, over every weighted node. A
// swap therefore costs O(buckets + owned × nodes), not O(nodes × buckets),
// and publishes exactly the assignment a full election would.
func (t *Table) Set(node string, weight float64) Swap {
	if weight < 0 || math.IsNaN(weight) {
		weight = 0
	} else if weight > 1 {
		weight = 1
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	old := t.state.Load()
	i, found := slices.BinarySearch(old.nodes, node)
	next := &tableState{nodes: old.nodes, hashes: old.hashes, assign: slices.Clone(old.assign)}
	oldW := 0.0
	if found {
		oldW = old.weights[i]
		next.weights = slices.Clone(old.weights)
		next.weights[i] = weight
	} else {
		next.nodes = slices.Concat(old.nodes[:i], []string{node}, old.nodes[i:])
		next.weights = slices.Concat(old.weights[:i], []float64{weight}, old.weights[i:])
		next.hashes = slices.Concat(old.hashes[:i], []uint64{hashString(node)}, old.hashes[i:])
		for b, o := range next.assign {
			if o >= int32(i) {
				next.assign[b] = o + 1
			}
		}
	}
	remapped := 0
	switch {
	case weight > oldW:
		remapped = next.raise(int32(i))
	case weight < oldW:
		remapped = next.reelect(int32(i))
	}
	return t.publish(old, next, node, oldW, weight, remapped)
}

// Remove drops node from the table entirely and publishes the updated
// assignment. Equivalent to Set(node, 0) for routing purposes; Remove
// additionally forgets the node.
//
//hbvet:api -- user need: decommission a node (membership, not health); Updater.Forget calls it
func (t *Table) Remove(node string) Swap {
	t.mu.Lock()
	defer t.mu.Unlock()

	old := t.state.Load()
	i, found := slices.BinarySearch(old.nodes, node)
	if !found {
		return t.publish(old, old, node, 0, 0, 0)
	}
	// Drain the node first, re-electing its buckets exactly as Set(node, 0)
	// does; then, owning nothing, it drops out of the index space.
	next := &tableState{nodes: old.nodes, weights: slices.Clone(old.weights), hashes: old.hashes, assign: slices.Clone(old.assign)}
	next.weights[i] = 0
	remapped := next.reelect(int32(i))
	next.nodes = slices.Concat(old.nodes[:i], old.nodes[i+1:])
	next.weights = slices.Concat(old.weights[:i], old.weights[i+1:])
	next.hashes = slices.Concat(old.hashes[:i], old.hashes[i+1:])
	for b, o := range next.assign {
		if o > int32(i) {
			next.assign[b] = o - 1
		}
	}
	return t.publish(old, next, node, old.weights[i], 0, remapped)
}

// raise hands node i, whose weight just rose, every bucket where its new
// score beats the owner's, breaking a tie toward the lower node index as
// elect does. No other bucket can move: every other node's score is
// unchanged. It returns how many buckets changed owner.
func (s *tableState) raise(i int32) (moved int) {
	w, h := s.weights[i], s.hashes[i]
	for b, o := range s.assign {
		if o == i {
			continue
		}
		best := 0.0
		if o >= 0 {
			best = s.weights[o] * draw(s.hashes[o], b)
		}
		if sc := w * draw(h, b); sc > best || sc == best && i < o {
			s.assign[b] = i
			moved++
		}
	}
	return moved
}

// reelect re-runs the election of every bucket owned by from, a node
// whose weight just fell, and returns how many changed owner.
func (s *tableState) reelect(from int32) (moved int) {
	for b, o := range s.assign {
		if o != from {
			continue
		}
		if w := s.elect(b); w != from {
			s.assign[b] = w
			moved++
		}
	}
	return moved
}

// elect returns the owner of bucket b under weighted rendezvous hashing:
// the node maximizing weight × draw, the lower index on a tie, or -1 when
// no node has weight.
func (s *tableState) elect(b int) int32 {
	owner, best := int32(-1), 0.0
	for i, w := range s.weights {
		if w <= 0 {
			continue
		}
		if sc := w * draw(s.hashes[i], b); sc > best {
			owner, best = int32(i), sc
		}
	}
	return owner
}

// publish swaps next in and accounts the change against old. Callers hold
// t.mu.
func (t *Table) publish(old, next *tableState, node string, oldW, newW float64, remapped int) Swap {
	t.state.Store(next)

	var tb, ta float64
	for _, w := range old.weights {
		tb += w
	}
	for _, w := range next.weights {
		ta += w
	}
	share := 0.0
	if m := math.Max(tb, ta); m > 0 {
		share = math.Abs(newW-oldW) / m
	}
	return Swap{Node: node, Old: oldW, New: newW, Remapped: remapped, Buckets: t.nbuckets, Share: share}
}

// draw is the rendezvous draw of the node whose name hashes to h for
// bucket b: -1/ln(u), an exponential-like variate of a u uniform in (0,1)
// derived from h and b alone. Draws of unchanged nodes never change, which
// is what makes disruption minimal and reclaim exact; and being a pure
// function of the name, a draw is recomputed on demand (in any process)
// rather than cached.
func draw(h uint64, b int) float64 {
	v := splitmix64(h + uint64(b+1)*0x9E3779B97F4A7C15)
	// u strictly inside (0,1): 53 mantissa bits, offset by half an ulp.
	u := (float64(v>>11) + 0.5) * (1.0 / (1 << 53))
	return -1 / math.Log(u)
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
