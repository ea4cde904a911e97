// Package hbnet streams Application Heartbeats between machines: the
// paper's claim that heartbeats "can be registered by one process and read
// by other processes, possibly on other machines" (§2–3), realized as the
// third observation backend next to in-process subscriptions (heartbeat,
// observer.HeartbeatStream) and shared files (hbfile).
//
// A Server publishes named feeds — live heartbeats, heartbeat files, or
// any cursor-resumable stream — over plain TCP using a length-prefixed
// binary codec. A Client dials one feed and satisfies observer.Stream, so
// every local stream owner (observer.Hub, Relay), and every controller
// deciding from a Hub's Status (package scheduler, the control policies),
// works unchanged across the process or machine boundary.
//
// Delivery keeps the local cursor semantics end to end: each record is
// delivered at most once, in order, and records published but lapped
// before delivery are counted in Batch.Missed — exactly like a local
// subscription. A subscriber presents its last cursor on connect; the
// server replays newer retained records (heartbeat.Heartbeat.ReadSince
// underneath, a page at a time) and then switches to live push. Each
// batch travels as one frame at the cursor its stream reports
// (observer.Batch.Count), and the Client hands it out with that cursor:
// no hop works a cursor out again from the records. The Client redials
// broken connections automatically with that same cursor, so a network
// blip costs a delay, never a duplicate, and ring overwrites during the
// outage surface as Missed rather than silent loss.
//
// Health judgments stay on the consumer side: the wire carries raw
// records, not opinions, which is the paper's division of labor — the
// application publishes progress, observers decide what it means.
//
// For fleets, Relay adds a hierarchical fan-in tier: one node subscribes
// to many upstream feeds (or local files), merges them into a single
// re-sequenced feed, and emits downsampled per-app Rollups — and relays
// compose into trees, so a monitor holds O(1) connections however many
// producers exist. See ARCHITECTURE.md at the repository root for when to
// choose each observation topology.
//
// Relay, Client and Server are each a shell around a sans-I/O core
// (relaycore.go, clientcore.go, servercore.go) that makes every protocol
// decision with no goroutines, channels, locks or clock.
//
// The transport is a seam, not a hard-coded socket: Serve accepts any
// net.Listener, and WithDialer routes a Client's dials (initial and every
// reconnect) through any Dialer. The deterministic simulation harness
// (package simnet) injects an in-memory network with a programmable fault
// schedule through exactly this seam, and WithClientClock / WithRelayClock
// put the backoff and rollup cadences on a virtual clock — which is how
// the reconnect/resume machinery is proven over hundreds of seeded fault
// scenarios per CI run without opening a socket.
package hbnet
