# Tier-1 verification plus race checking and the short benchmark pass in
# one command: `make ci`.

GO ?= go

.PHONY: ci vet analyze build build-extras test race net-loopback sim-matrix scale-matrix drain-scenario failover-scenario fuzz-short docs apicount bench-short bench bench-net bench-relay bench-shm bench-balance benchgate

ci: vet analyze build build-extras race net-loopback sim-matrix scale-matrix drain-scenario failover-scenario fuzz-short docs bench-short bench-net bench-relay bench-shm bench-balance benchgate

# go vet, and gofmt as a gate: any file gofmt would rewrite fails the target
# (analyzer testdata holds deliberately odd source and is left alone).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l . | grep -v '/testdata/' || true); \
	if [ -n "$$unformatted" ]; then \
		echo "vet: gofmt would rewrite:"; echo "$$unformatted"; exit 1; \
	fi

# Project-specific static analysis: tools/hbvet enforces the clock seam
# (no wall-clock reads outside the seam files), the hot-path contract
# (//hbvet:hotpath functions stay allocation- and lock-free, transitively),
# and clock hygiene (types that store a Clock must use it). Every finding
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

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The hbnet loopback round trip, briefly and race-checked: one real TCP
# server and client exchanging records in-process — the fastest signal
# that the wire protocol still works end to end.
net-loopback:
	$(GO) test -race -run 'TestLoopbackRoundTrip' ./hbnet

# The deterministic simulation matrix, race-checked: 100+ seeded
# whole-stack scenarios (lapped rings, producer restarts, file recreation,
# link blips, partitions, relay outages across every topology), hundreds
# of simulated seconds in a few real ones, every scenario checked against
# the simcheck delivery contract. The run is recorded as test2json events
# in BENCH_sim.json so the suite's runtime trajectory is tracked across
# PRs; a failing scenario prints its seed (replay with SIMNET_SEED=<seed>)
# both to the console and into the recording. One rotating seed rides
# along with the fixed ones, widening coverage over time.
sim-matrix:
	@rm -f BENCH_sim.json
	$(GO) test -race -run 'TestScenarioMatrix' -v -json ./simnet > BENCH_sim.json; \
		status=$$?; \
		sed -n 's/^{.*"Output":"\(.*\)"}$$/\1/p' BENCH_sim.json \
			| awk '{printf "%s", $$0}' | sed -e 's/\\n/\n/g' -e 's/\\t/\t/g' \
			| grep -E 'matrix:|SIMNET_SEED' || true; \
		exit $$status

# The scale matrix: seeded 10k-producer relay-tree runs (Zipf hot-key
# skew, producer churn, correlated silence bursts) through package loadgen
# under virtual time, plus the equal-volume state-growth check, plus the
# benchmark that records p99 virtual delivery latency and heap
# bytes/producer into BENCH_scale.json for benchgate's ceilings. `-short`
# keeps the PR tier at 10k producers; SCALE_FULL=1 adds the 100k and 1M
# tiers. A failing scenario prints SCALE_SEED=<seed> for exact replay.
scale-matrix:
	@rm -f BENCH_scale.json
	$(GO) test -run 'TestScale' $(if $(SCALE_FULL),,-short) \
		-bench 'BenchmarkScale' -benchtime=1x -timeout 30m \
		-v -json ./simnet > BENCH_scale.json; \
		status=$$?; \
		sed -n 's/^{.*"Output":"\(.*\)"}$$/\1/p' BENCH_scale.json \
			| awk '{printf "%s", $$0}' | sed -e 's/\\n/\n/g' -e 's/\\t/\t/g' \
			| grep -E 'scale:|SCALE_SEED' || true; \
		exit $$status

# The balancer's tests in isolation, race-checked: the drain/reclaim
# scenario arc also runs inside sim-matrix (EvNodeDrain scenarios, with
# the matrix gate asserting the arc was exercised), but this shard keeps
# a balance-layer failure attributable — hysteresis edges, lock-free
# swaps under -race, and the end-to-end updater drain all in one place.
drain-scenario:
	$(GO) test -race ./balance ./internal/simcheck

# The elastic-membership shard, race-checked: the relay lifecycle tests
# (add, remove, retire, Run stop and restart, rebalance) repeated to shake
# out interleavings between pumps, removals and shutdown, the deterministic
# leaf-die failover and backpressure-shed tests, then full scenario-runner
# replays of generated leaf-die seeds (seeds whose schedules contain
# EvLeafDie — re-probe if the generator's draw order ever changes). The
# failover arc also runs inside sim-matrix, whose gate asserts handoffs
# were exercised; this shard keeps an elastic-membership failure
# attributable. A failing scenario prints SIMNET_SEED=<seed> for exact
# replay.
failover-scenario:
	$(GO) test -race -count=5 -run 'TestRelay|TestRebalance' ./hbnet
	$(GO) test -race -run 'TestLeafDieFailoverDeterministic|TestBackpressureShedExactlyAccountsGap' ./simnet
	@for seed in 1 26 42; do \
		echo "failover-scenario: replaying SIMNET_SEED=$$seed"; \
		SIMNET_SEED=$$seed $(GO) test -race -run 'TestScenarioMatrix' ./simnet || exit 1; \
	done

# Short go-fuzz passes over the hbnet wire codec: the decoders face bytes
# from the network, so they must never panic and must decode accepted
# frames to values that re-encode identically. The checked-in corpus under
# hbnet/testdata/fuzz holds past finds as regressions. The hbfile passes
# cover the other bytes an observer does not own: files written by another
# process (hostile headers, a reserved head ahead of the cursor) and the
# segment encoder's round trip through a wrapping batch.
fuzz-short:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeFrame$$' -fuzztime 3s ./hbnet
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeRollup$$' -fuzztime 3s ./hbnet
	$(GO) test -run '^$$' -fuzz 'FuzzOpenArbitraryBytes$$' -fuzztime 3s ./hbfile
	$(GO) test -run '^$$' -fuzz 'FuzzRecordRoundTrip$$' -fuzztime 3s ./hbfile

# Documentation verification: vet, every godoc Example compiled and run,
# and the README/ARCHITECTURE code blocks checked against the sources they
# are annotated with (tools/docscheck), so the docs cannot silently drift
# from the code.
docs: vet
	$(GO) test -run '^Example' ./...
	$(GO) run ./tools/docscheck README.md ARCHITECTURE.md

# The size of the observation stack's surface: non-test lines and exported
# identifiers per package (tools/apicount). A PR that shrinks either runs
# this at its parent and at itself and reports both tables in CHANGES.md.
apicount:
	@$(GO) run ./tools/apicount hbnet hbshm observer internal/cursor scheduler cmd/hbmon

# The core-API benchmarks only, briefly: enough to catch a hot-path
# regression without regenerating every figure.
bench-short:
	$(GO) test -run '^$$' -bench 'BenchmarkBeat$$|BenchmarkHeartbeatParallel|BenchmarkThreadBeat' \
		-benchmem -benchtime=200ms .

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# Echo the human-readable ns/op lines back out of a go test -json capture.
define show-bench
	@sed -n 's/^{.*"Output":"\(.*\)"}$$/\1/p' $(1) \
		| awk '{printf "%s", $$0}' \
		| sed -e 's/\\n/\n/g' -e 's/\\t/\t/g' \
		| grep 'ns/op'
endef

# The remote consumer path: sustained records/s over loopback TCP and the
# idle-tick cost, recorded as test2json events in BENCH_net.json so the
# trajectory is tracked across PRs.
bench-net:
	$(GO) test -run '^$$' -bench 'BenchmarkNetStream' -benchmem \
		-benchtime=200ms -json ./hbnet > BENCH_net.json
	$(call show-bench,BENCH_net.json)

# The fan-in tier: records/s through N producers → relay → subscriber over
# real loopback TCP, plus the in-process downsample cost, recorded in
# BENCH_relay.json next to the other trajectories.
bench-relay:
	$(GO) test -run '^$$' -bench 'BenchmarkRelay' -benchmem \
		-benchtime=1s -json ./hbnet > BENCH_relay.json
	$(call show-bench,BENCH_relay.json)

# The shared-memory transport against loopback TCP: the same record
# batches through both, plus the idle-tick cost of each, recorded in
# BENCH_shm.json. The shm rows are the paper's shared-memory registry
# claim in numbers — observation without crossing the kernel.
bench-shm:
	$(GO) test -run '^$$' -bench 'BenchmarkShmVsTCP' -benchmem \
		-benchtime=1s -json ./hbshm > BENCH_shm.json
	$(call show-bench,BENCH_shm.json)

# The balancer's routing hot path: lock-free copy-on-write Pick vs the
# RWMutex baseline at 1/4/8 goroutines, Pick throughput during concurrent
# weight swaps, and the measured remap fraction of a node removal,
# recorded in BENCH_balance.json next to the other trajectories.
bench-balance:
	$(GO) test -run '^$$' -bench 'BenchmarkPick|BenchmarkRemap' -benchmem \
		-benchtime=200ms -json ./balance > BENCH_balance.json
	$(call show-bench,BENCH_balance.json)

# Gate the recorded benchmarks: fan-in-32 must stay within 20% of the
# committed baseline (tools/benchgate/baseline.json), the shared-memory
# transport must stay faster than loopback TCP, and the balancer's
# lock-free read path must beat the RWMutex baseline under contention,
# allocate nothing (the -require contract, which also verifies the measured
# function still carries its //hbvet:hotpath mark so the static and
# measured 0-alloc guarantees cover the same code), and keep a single-node
# removal's remap fraction under the minimal-disruption ceiling
# (simcheck.RemapBound of a 1/8 share). The require contract also gates
# the scale-matrix recording (BENCH_scale.json): p99 virtual delivery
# latency and heap bytes/producer at the 10k-producer tier against their
# committed ceilings. Run after scale-matrix, bench-relay, bench-shm, and
# bench-balance have refreshed the JSON captures.
benchgate:
	$(GO) run ./tools/benchgate -file BENCH_relay.json -bench Relay/fanin-32 \
		-metric records/s -baseline tools/benchgate/baseline.json -tolerance 0.20
	$(GO) run ./tools/benchgate -file BENCH_shm.json -metric records/s \
		-faster ShmVsTCP/shm/stream,ShmVsTCP/tcp/stream
	$(GO) run ./tools/benchgate -file BENCH_balance.json -metric picks/s \
		-faster Pick/cow/p8,Pick/rwmutex/p8
	$(GO) run ./tools/benchgate -require tools/benchgate/require.json
	$(GO) run ./tools/benchgate -file BENCH_balance.json -bench Remap \
		-metric remapfrac -atmost 0.2175
	$(GO) run ./tools/benchgate -file BENCH_balance.json -bench Pick/cow/p8 \
		-metric picks/s -baseline tools/benchgate/baseline.json -tolerance 0.25
