// Package repro is a Go reproduction of "Application Heartbeats for
// Software Performance and Health" (Hoffmann, Eastep, Santambrogio,
// Miller, Agarwal — MIT CSAIL, PPoPP 2010).
//
// The library lives in the subpackages:
//
//   - heartbeat: the Application Heartbeats API (the paper's contribution),
//     with a sharded lock-free beat hot path — per-thread single-producer
//     rings merged by a batched aggregator, a single atomic store per beat
//     in the steady state — and cursor-based consumers (ReadSince,
//     Subscribe) that read each record exactly once
//   - heartbeat/compat: Table-1-shaped wrappers for C-reference parity
//   - hbfile: the file-backed ring for cross-process observation, with
//     incremental readers (an idle observer tick is one 8-byte read)
//   - hbnet: the network backend — heartbeat streaming over TCP with
//     cursor resume, so observers on other machines consume the same
//     Streams (the third backend next to in-process and hbfile) — and the
//     hierarchical fan-in tier (Relay): many producers merged into one
//     feed plus downsampled per-app rollups, composing into trees so one
//     monitor watches a fleet through one connection
//   - observer: external observation as incremental Streams — Hub to
//     judge one or many named applications in one loop,
//     RollupWindow/Downsampler to reduce streams to per-interval
//     summaries — plus health classification
//   - control: adaptation policies (threshold stepper, PI, quality ladder)
//   - scheduler: heart-rate-driven core allocation, deciding from streams
//   - sim: the deterministic simulated multicore machine
//
// See README.md for a tour and ARCHITECTURE.md for the layered picture,
// the cursor/Missed delivery contract, and how to choose among the four
// observation topologies. The benchmarks in bench_test.go regenerate the
// paper's tables and figures under go test -bench and ablate the main
// design choices.
package repro
