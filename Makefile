# Tier-1 verification plus race checking, static analysis, the simulation
# matrices, fuzzing and the docs checks in one command: `make ci`. The
# performance ledger is hbbench (bash bench/run.sh), not a ci target.

GO ?= go

.PHONY: ci vet analyze build build-extras test race net-loopback sim-matrix scale-matrix drain-scenario failover-scenario fuzz-short docs apicount bench

ci: vet analyze build build-extras race net-loopback sim-matrix scale-matrix drain-scenario failover-scenario fuzz-short docs

# go vet, and gofmt as a gate: any file gofmt would rewrite fails the target
# (analyzer testdata holds deliberately odd source and is left alone).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '/testdata/' || true); \
	if [ -n "$$unformatted" ]; then \
		echo "vet: gofmt would rewrite:"; echo "$$unformatted"; exit 1; \
	fi

# Project-specific static analysis: tools/hbvet's five analyzers enforce
# the clock seam (no wall-clock reads outside the seam files), the hot-path
# contract (//hbvet:hotpath functions stay allocation- and lock-free,
# transitively), clock hygiene (types that store a Clock must use it), a
# public surface with users (every export of a non-internal package is
# used from another package's non-test file, or says why it stays with
# //hbvet:api -- <reason>), and pure cores (a file marked //hbvet:pure
# starts no goroutine, touches no channel and imports no sync, context or
# clock). Every finding
# fails ci exactly like a broken test. staticcheck rides along when its
# module is available (generate tools/staticcheck.sum with
# `go mod tidy -modfile=tools/staticcheck.mod` on a networked machine);
# in an offline container the probe fails and the step is skipped, never
# silently degrading the hbvet gate, which is stdlib-only and always runs.
analyze:
	$(GO) run ./tools/hbvet ./...
	@if $(GO) run -modfile=tools/staticcheck.mod honnef.co/go/tools/cmd/staticcheck -version >/dev/null 2>&1; then \
		$(GO) run -modfile=tools/staticcheck.mod honnef.co/go/tools/cmd/staticcheck ./...; \
	else \
		echo "analyze: staticcheck unavailable (no module cache/network); skipped"; \
	fi

build:
	$(GO) build ./...

# The examples and commands are main packages `go build ./...` covers, but
# building them explicitly keeps their breakage attributable when ci fails.
build-extras:
	$(GO) build ./examples/...
	$(GO) build ./cmd/...

# -count=1: a rerun runs the tests again rather than printing cached
# results as fresh, as sim-matrix and scale-matrix do.
test:
	$(GO) test -count=1 ./...

# The second line repeats the race between a Thread's first local beat,
# which publishes its on-demand local ring, and concurrent readers. The
# third repeats the clock's timers and sleeps and the pump's wait: a
# clock.Virtual runs timer callbacks outside its lock, on whichever
# goroutine advances it. The fourth repeats a reader lapped by a segment
# writer over both access methods to the one ring (hbfile's pwrite/pread,
# hbshm's mapping), the only stress net the mapping path has.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=20 -run TestThreadLocalRing ./heartbeat
	$(GO) test -race -count=20 -run 'AfterFunc|Wait|Sleep|NoVirtualTimers' ./clock ./internal/pump
	$(GO) test -race -count=5 -run TestSegmentWritesNeverTearUnderLappedReader ./hbfile

# The hbnet loopback round trip, briefly and race-checked: one real TCP
# server and client exchanging records in-process — the fastest signal
# that the wire protocol still works end to end.
net-loopback:
	$(GO) test -race -run 'TestLoopbackRoundTrip' ./hbnet

# The deterministic simulation matrix, race-checked: 100+ seeded
# whole-stack scenarios (lapped rings, producer restarts, file recreation,
# link blips, partitions, relay outages across every topology), hundreds
# of simulated seconds in a few real ones, every scenario checked against
# the simcheck delivery contract. The test2json capture goes to a
# temporary file, from which the summary line and any failing scenario's
# seed (replay with SIMNET_SEED=<seed>) are echoed. One rotating seed rides
# along with the fixed ones, widening coverage over time. -count=1, here
# and in scale-matrix, keeps a rerun from printing a cached summary as if
# it were fresh.
sim-matrix:
	@out=$$(mktemp); \
		$(GO) test -count=1 -race -run 'TestScenarioMatrix' -v -json ./internal/simnet > $$out; \
		status=$$?; \
		sed -n 's/^{.*"Output":"\(.*\)"}$$/\1/p' $$out \
			| awk '{printf "%s", $$0}' | sed -e 's/\\n/\n/g' -e 's/\\t/\t/g' \
			| grep -E 'matrix:|SIMNET_SEED' || true; \
		rm -f $$out; \
		exit $$status

# The scale matrix: seeded 10k-producer relay-tree runs (Zipf hot-key
# skew, producer churn, correlated silence bursts) through package loadgen
# under virtual time, plus the equal-volume state-growth check. Each run
# fails on its own p99 virtual delivery latency and heap bytes/producer
# ceilings (ScaleScenario.Run). `-short` keeps the PR tier at 10k
# producers; SCALE_FULL=1 adds the 100k and 1M tiers. A failing scenario
# prints SCALE_SEED=<seed> for exact replay.
scale-matrix:
	@out=$$(mktemp); \
		$(GO) test -count=1 -run 'TestScale' $(if $(SCALE_FULL),,-short) -timeout 30m \
			-v -json ./internal/simnet > $$out; \
		status=$$?; \
		sed -n 's/^{.*"Output":"\(.*\)"}$$/\1/p' $$out \
			| awk '{printf "%s", $$0}' | sed -e 's/\\n/\n/g' -e 's/\\t/\t/g' \
			| grep -E 'scale:|SCALE_SEED' || true; \
		rm -f $$out; \
		exit $$status

# The balancer's tests in isolation, race-checked: the drain/reclaim
# scenario arc also runs inside sim-matrix (EvNodeDrain scenarios, with
# the matrix gate asserting the arc was exercised), but this shard keeps
# a balance-layer failure attributable — hysteresis edges, lock-free
# swaps under -race, and the end-to-end updater drain all in one place.
drain-scenario:
	$(GO) test -race ./balance ./internal/simcheck

# The elastic-membership shard, race-checked: the relay and hub lifecycle
# tests (add, remove, retire, Run stop and restart, rebalance), the
# one-app hub (monitor) tests and a running hub driving the scheduler,
# repeated to shake out interleavings between pumps, removals and
# shutdown (relay and hub run their streams through internal/pump); the
# deterministic leaf-die failover and backpressure-shed tests, then full
# scenario-runner replays of generated leaf-die seeds (seeds whose
# schedules contain EvLeafDie — re-probe if the generator's draw order
# ever changes). The failover arc also runs inside sim-matrix, whose gate
# asserts handoffs were exercised; this shard keeps an elastic-membership
# failure attributable. A failing scenario prints SIMNET_SEED=<seed> for
# exact replay.
failover-scenario:
	$(GO) test -race -count=5 -run 'TestRelay|TestRebalance|TestHub|TestMonitor|TestRunLoop' ./hbnet ./observer ./scheduler
	$(GO) test -race -run 'TestLeafDieFailoverDeterministic|TestBackpressureShedExactlyAccountsGap' ./internal/simnet
	@for seed in 1 26 42; do \
		echo "failover-scenario: replaying SIMNET_SEED=$$seed"; \
		SIMNET_SEED=$$seed $(GO) test -race -run 'TestScenarioMatrix' ./internal/simnet || exit 1; \
	done

# Short go-fuzz passes over the hbnet wire codec: the decoders face bytes
# from the network, so they must never panic and must decode accepted
# frames to values that re-encode identically, and the batch decoder's
# word-at-a-time record loop must accept, reject and decode every body
# exactly as the plain per-field loop it replaced does. The client-core
# pass scripts one subscription through the server and client protocol
# cores — publishes, losses, restarts, cursor reads paged at a size the
# script picks, cuts mid-frame, corrupted frames, server errors, redials —
# and holds every delivery, one frame per batch at the cursor its Count
# reports, to simcheck's exactly-once-or-counted accounting. The
# checked-in corpus under hbnet/testdata/fuzz holds past finds as
# regressions. The
# hbfile passes cover the other bytes an observer does not own: files
# written by another process (hostile headers, a reserved head ahead of the
# cursor) and the segment encoder's round trip through a wrapping batch.
# The hbshm pass maps arbitrary bytes as a shared-memory region another
# process wrote. The balance pass holds the table's incremental swaps to a
# full re-election of the same (node, weight) set, bucket for bucket, and
# each swap's accounting to a name-by-name recount.
fuzz-short:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeFrame$$' -fuzztime 3s ./hbnet
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeRollup$$' -fuzztime 3s ./hbnet
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeBatchMatchesReference$$' -fuzztime 3s ./hbnet
	$(GO) test -run '^$$' -fuzz 'FuzzClientCore$$' -fuzztime 3s ./hbnet
	$(GO) test -run '^$$' -fuzz 'FuzzOpenArbitraryBytes$$' -fuzztime 3s ./hbfile
	$(GO) test -run '^$$' -fuzz 'FuzzRecordRoundTrip$$' -fuzztime 3s ./hbfile
	$(GO) test -run '^$$' -fuzz 'FuzzOpenArbitraryBytes$$' -fuzztime 3s ./hbshm
	$(GO) test -run '^$$' -fuzz 'FuzzTableMatchesRebuild$$' -fuzztime 3s ./balance

# Documentation verification: vet, every godoc Example compiled and run,
# and the README/ARCHITECTURE code blocks checked against the sources they
# are annotated with (tools/docscheck), so the docs cannot silently drift
# from the code.
docs: vet
	$(GO) test -run '^Example' ./...
	$(GO) run ./tools/docscheck README.md ARCHITECTURE.md

# The size of the public surface: non-test lines, exported identifiers and
# //hbvet:api marks per package (tools/apicount) — every package in the
# deadapi pass's scope, plus the internal packages and command the
# observation stack shares. A PR that shrinks either runs this at its
# parent and at itself and reports both tables in CHANGES.md.
apicount:
	@$(GO) run ./tools/apicount clock heartbeat heartbeat/compat hbnet hbshm hbfile internal/hbring observer sim balance scheduler control internal/cursor internal/pump cmd/hbmon

# The paper's table and figure benchmarks with their ablations (the root
# bench_test.go). Hot-path costs are hbbench's: bash bench/run.sh.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .
