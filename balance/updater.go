package balance

import (
	"context"
	"math"
	"sync"

	"repro/hbnet"
	"repro/observer"
)

// Updater drives a Table from live heartbeat evidence: feed it rollup
// windows (Absorb, or Run against an hbnet.RollupFeed) and classifier
// judgments (StatusHook, wired into an observer.Hub), and
// it applies a Policy's weight decisions as copy-on-write table swaps.
// All routing state changes happen here, event-driven — the per-request
// Pick path never recomputes anything.
//
// Updater is safe for concurrent use; rollup and status sources may feed
// it from different goroutines.
type Updater struct {
	table  *Table
	policy Policy

	mu    sync.Mutex
	nodes map[string]*nodeState

	onSwap  func(Swap)
	actuate func(node string, proposed float64) float64
}

// UpdaterOption configures NewUpdater.
type UpdaterOption func(*Updater)

// WithOnSwap installs a callback invoked (outside the updater's lock is
// NOT guaranteed — keep it cheap) for every swap that changed the table:
// the observability hook hbmon -balance and the scenario auditors use.
func WithOnSwap(f func(Swap)) UpdaterOption {
	return func(u *Updater) { u.onSwap = f }
}

// WithActuator interposes a controller between the policy's proposed
// weight and the applied one: it receives the node and the policy's
// proposal and returns the weight to apply (clamped to [0,1]). This is
// where a control.PI loop — or an AmdahlPlanner-derived allotment —
// plugs in. Moves to 0 (drain) and the reclaim ramp bypass the actuator:
// liveness decisions stay with the policy.
func WithActuator(f func(node string, proposed float64) float64) UpdaterOption {
	return func(u *Updater) { u.actuate = f }
}

// NewUpdater returns an updater applying policy to table. A zero Policy
// is normalized to the documented defaults.
func NewUpdater(table *Table, policy Policy, opts ...UpdaterOption) *Updater {
	u := &Updater{
		table:  table,
		policy: policy.normalized(),
		nodes:  make(map[string]*nodeState),
	}
	for _, o := range opts {
		o(u)
	}
	return u
}

// Absorb folds rollup windows into their nodes' state, swapping the table
// wherever the policy decides a weight changed. Rollups for unseen apps
// add the node: a first live window admits it at full target weight (a
// fresh node is presumed healthy — the classifier and the next windows
// will correct it), a first silent window records it drained.
func (u *Updater) Absorb(rollups ...observer.Rollup) {
	u.mu.Lock()
	defer u.mu.Unlock()
	for _, r := range rollups {
		st, ok := u.nodes[r.App]
		if !ok {
			st = newNodeState()
			u.nodes[r.App] = st
		}
		u.apply(r.App, st, u.policy.judge(st, r))
	}
}

// applyStatus folds one classifier judgment for app into its node state,
// swapping the table if the policy decides the weight changed.
func (u *Updater) applyStatus(app string, s observer.Status) {
	u.mu.Lock()
	defer u.mu.Unlock()
	st, ok := u.nodes[app]
	if !ok {
		st = newNodeState()
		u.nodes[app] = st
	}
	u.apply(app, st, u.policy.judgeStatus(st, s))
}

// StatusHook adapts applyStatus to the observer.Hub onStatus callback
// signature: pass it to observer.NewHub (or chain it from an existing
// callback) and every classifier judgment drives the table.
func (u *Updater) StatusHook() func(name string, st observer.Status) {
	return u.applyStatus
}

// Run subscribes to a rollup feed from emission since and absorbs every
// delivery until ctx is done or the feed ends; it returns nil on a clean
// feed end and ctx.Err() after cancellation. Pair it with a Relay's
// RollupFeed() in-process, or with hbnet.DialRollupFeed for a remote
// relay.
func (u *Updater) Run(ctx context.Context, feed hbnet.RollupFeed, since uint64) error {
	return feed.Consume(ctx, since, func(b hbnet.RollupBatch) error {
		u.Absorb(b.Rollups...)
		return nil
	})
}

// Weight returns the node's currently applied weight (0 when unknown).
func (u *Updater) Weight(node string) float64 {
	u.mu.Lock()
	defer u.mu.Unlock()
	if st, ok := u.nodes[node]; ok {
		return st.weight
	}
	return 0
}

// Forget drops a node from the updater and removes it from the table —
// for membership changes (a node decommissioned), as opposed to health
// changes (a node drained).
//
//hbvet:api -- user need: decommission a node, as opposed to draining it
func (u *Updater) Forget(node string) Swap {
	u.mu.Lock()
	defer u.mu.Unlock()
	delete(u.nodes, node)
	sw := u.table.Remove(node)
	if u.onSwap != nil && (sw.Remapped > 0 || sw.Old != sw.New) {
		u.onSwap(sw)
	}
	return sw
}

// apply pushes a proposed weight through the actuator and the MinDelta
// hysteresis gate, swapping the table when it survives both. Callers hold
// u.mu.
func (u *Updater) apply(node string, st *nodeState, next float64) {
	if next == st.weight {
		return // the policy proposes holding — nothing to actuate or swap
	}
	// The actuator shapes live targets only: drains and the reclaim ramp
	// are liveness decisions the policy owns.
	if u.actuate != nil && next > 0 && !st.drained {
		next = u.actuate(node, next)
		if next < 0 || math.IsNaN(next) {
			next = 0
		} else if next > 1 {
			next = 1
		}
	}
	old := st.weight
	if next == old {
		return
	}
	if next != 0 && old != 0 && math.Abs(next-old) < u.policy.MinDelta {
		return // jitter: not worth a table swap
	}
	st.weight = next
	sw := u.table.Set(node, next)
	if u.onSwap != nil && (sw.Remapped > 0 || sw.Old != sw.New) {
		u.onSwap(sw)
	}
}
