// Package heartbeat implements the Application Heartbeats framework from
// "Application Heartbeats for Software Performance and Health" (Hoffmann,
// Eastep, Santambrogio, Miller, Agarwal — MIT CSAIL, PPoPP 2010).
//
// Applications call Beat at significant points (a processed frame, a
// completed query, a finished chunk) to register progress. The intervals
// between heartbeats expose the application's actual performance — its heart
// rate, in beats per second — to the application itself and to external
// observers such as schedulers, runtimes, or health monitors. Applications
// declare their goal by setting a target heart-rate window; observers adapt
// resources (or the application adapts itself) to keep the measured rate
// inside that window.
//
// # Core concepts
//
//   - A Heartbeat owns a global (per-application) history of Records and a
//     default averaging window, both fixed at construction.
//   - Beat / BeatTag append a timestamped Record to the global history.
//   - Rate reports the average heart rate over the last w beats; w == 0 uses
//     the default window, and windows larger than the retained history are
//     silently clipped (as the paper specifies).
//   - SetTarget publishes the [min, max] beats-per-second goal so that
//     external observers can read it.
//   - History returns the most recent Records for in-depth analysis.
//   - Thread registers a per-thread handle with a private history, mirroring
//     the paper's local heartbeats. Go exposes no thread identity, so local
//     heartbeats attach to explicitly registered *Thread handles, one per
//     worker goroutine.
//
// # Sharded hot path
//
// Beat registration is built to run as fast as the hardware allows:
//
//   - Every Thread owns a lock-free single-producer ring (internal/ring
//     SP) as its global shard for GlobalBeat and, from its first Beat on, a
//     second as its private local history. A beat is a mutex-free,
//     allocation-free push (the first local beat allocates the local
//     ring); the rings run-length encode timestamps and store tags out of
//     line, so in the steady state (repeated timestamp, tag 0) a beat is a
//     single atomic store.
//   - Repeated timestamps are the norm on the default clock: a Thread reads
//     the wall clock once per several beats, not once per beat — how many is
//     private to the producer, adapts to its beat rate, and is capped at
//     min(64, window/2), so a stamp is at most 100 µs old on a steady fast
//     beater, exact on one beating slower than that, and any window of beats
//     still spans two readings (see Thread). A clock injected with WithClock,
//     SystemClock included, is read on every beat.
//   - A batched aggregator merges the shards into the global history — a
//     k-way merge by timestamp, ties broken by shard registration order —
//     assigning the dense global sequence numbers, one atomic claim per
//     same-timestamp run, and delivering sink batches (BatchSink). Merges
//     happen on every read, on the interval configured with
//     WithFlushInterval, and whenever a shard's backlog reaches half its
//     capacity (WithShardCapacity), so no beat is ever lost. When no sink is
//     attached, backlog beyond the history capacity is accounted without
//     being materialized, since a bounded history would discard it on
//     arrival anyway.
//   - Beats on the Heartbeat itself (Beat/BeatTag) keep the reference
//     implementation's synchronous contract: the record is stored,
//     sequenced after all pending shard records, and delivered to the sink
//     before the call returns.
//
// The merged global history is a lock-free ring whose slots readers validate
// against the writers' claim counter: observers never block producers,
// mirroring the paper's requirement that hardware or external software may
// read heartbeat buffers concurrently with the application. The subdirectory
// package compat offers the paper's exact Table 1 function shapes.
//
// # Streaming consumers
//
// Readers that track the history over time consume it incrementally
// instead of re-reading windows:
//
//   - ReadSince(seq) returns only the records published after seq plus the
//     cursor to resume from — an idle call does no per-record work.
//   - Subscribe / SubscribeFrom return a Subscription whose Next blocks
//     until a flush publishes new records (wake on publication, no
//     polling) and delivers them as a batch, each record exactly once,
//     resumable across reconnects via its Cursor.
//
// Package observer builds its Stream abstraction — monitors, schedulers,
// and the multi-application hub — on these two calls.
//
// Cross-process observation — the paper's reference implementation writes
// heartbeats to a file — is provided by the companion package hbfile via the
// Sink hook (WithSink); its readers offer the same incremental ReadSince.
// Cross-machine observation is the companion package hbnet: the same
// cursor semantics streamed over TCP, with disconnected subscribers
// resuming via SubscribeFrom on the serving side.
//
// # Quick start
//
//	hb, _ := heartbeat.New(20)            // 20-beat default window
//	hb.SetTarget(30, 35)                  // goal: 30–35 beats/s
//	for _, frame := range frames {
//	    encode(frame)
//	    hb.Beat()
//	    if r, ok := hb.Rate(0); ok && r < 30 {
//	        lowerQuality()
//	    }
//	}
package heartbeat
