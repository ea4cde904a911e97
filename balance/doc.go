// Package balance closes the loop the paper opens: heartbeats exist so
// that an external service can *act* on them, and this package is the
// acting half — a load balancer whose routing table is driven by live
// heartbeat observations instead of static configuration or synthetic
// health probes.
//
// Three pieces compose:
//
//   - Table is a lock-free consistent-hashing selector: a copy-on-write
//     bucket table swapped by atomic pointer. The per-request Pick path
//     is one atomic load, one hash, one slice index — zero locks, zero
//     allocations. Membership and weight changes update a copy of the
//     table off to the side and swap it in atomically. Weighted
//     rendezvous over a fixed bucket space means a change to one node's
//     weight moves only buckets that node gains or loses, so only those
//     are revisited: a rise compares the node's new score with each
//     bucket's owner, a fall re-elects just the buckets it owned. A swap
//     costs O(buckets + owned × nodes), the table holds O(nodes +
//     buckets), and every swap reports exactly how many buckets moved.
//
//   - Policy turns a node's observed heartbeat windows (observer.Rollup)
//     and classifier judgments (observer.Status) into a weight in [0,1],
//     with hysteresis: one silent window holds, DrainAfter consecutive
//     silent windows drain (weight 0), and a drained node reclaims only
//     after ReclaimAfter consecutive live windows, ramping back up
//     instead of snapping — so a flapping producer cannot make traffic
//     slosh.
//
//   - Updater is the event-driven glue: feed it rollups (Absorb, or Run
//     against an hbnet.RollupFeed) and classifier transitions
//     (StatusHook on an observer.Hub), and it applies the policy's
//     weight decisions to the table as swaps — no per-request
//     recomputation anywhere.
//
// The weighted-rendezvous construction gives the minimal-disruption
// property consistent hashing is chosen for: removing (or draining) one
// of N equally weighted nodes remaps only that node's ≈1/N share of the
// key space, and restoring a node to a weight it held before restores
// exactly the bucket assignment it had before — reclaimed traffic goes
// home, not to a reshuffled stranger.
package balance
