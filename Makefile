# Build/test/bench entry points, including the PGO workflow. The three
# binaries that simulate (localbench, localserved, localsweepd) build
# profile-guided from a committed default.pgo next to each main package (the
# Go toolchain applies a default.pgo only from the main package's own
# directory); cmd/localbench/default.pgo is the canonical file and the other
# two are byte-identical copies. `make pgo` regenerates it from
# BenchmarkPaper and `make verify-pgo` proves a plain `go build` applies it
# to all three (the CI pgo-gate job runs it on every commit).

GO ?= go

.PHONY: build test race bench pgo verify-pgo

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The race detector over the packages where goroutines meet; CI's "Race"
# step runs this target, so the list exists only here.
# internal/engines is included because its sweep tests are the only place
# the real transformer algorithms run concurrently through the scheduler
# (shared uniform values, memoized plans); internal/scenario because
# expansion shares uniform algorithms across parallel jobs; internal/serve
# because its load test races 64 concurrent requests (with mid-batch client
# disconnects) through the whole stack, and job shards share its execution
# slots; internal/fabric/... because the coordinator chaos tests race
# retries, attempt timeouts, breaker probes and replica death against the
# scheduler and assert goroutine quiescence afterwards; internal/job because
# its crash/drain/coalesce tests race workers, SSE subscribers,
# cancellation and simulated process death against the journal;
# internal/bitset because the engine's parallel workers record halts into a
# shared Set with plain stores, each only into the words of its own range,
# and the local package's bitset differential (5 graph families × 3
# schedulers × worker counts) must hold under the race detector;
# internal/algorithms/lift and internal/algorithms/matching because the
# line, Power and Product run-digest tables (every scheduler kind, under
# Compose and inside the transformer's Subrun windows, cases run
# concurrently) must hold with their per-round arenas and reused buffers
# under the race detector; internal/algorithms/linial because parallel sweep
# jobs share the memoized Linial schedule, and its memo test races
# concurrent first use of each guess pair (internal/local's Compose digest
# table runs the composed stacks concurrently on the same memo);
# internal/core and internal/algorithms/arbmis because both drive the
# engine's silent-stretch skip path (the transformer's altNode and the
# arboricity MIS answer Wake between rounds) at 1 and 4 workers.
race:
	$(GO) test -race -short ./internal/bitset ./internal/local ./internal/graph \
		./internal/sweep ./internal/engines ./internal/scenario ./internal/serve \
		./internal/fabric/... ./internal/job ./internal/algorithms/lift \
		./internal/algorithms/matching ./internal/algorithms/linial \
		./internal/core ./internal/algorithms/arbmis

# One-shot run of every paper experiment (BenchmarkPaper: each spec of
# scenarios/paper, outputs checked by the registry checkers), the engine
# microbenchmarks, the transformer hot-path benchmarks (among them the
# radius-2 and radius-3 gathers, BenchmarkAlternatingGather/mis-radius2 and
# /rulingset-radius3, the latter on the rulingset-smallworld host), the
# line lift on the matching-geometric-dense host, the Power and Product lifts on the
# rulingset-smallworld and deg-coloring-hypercube-dense shapes, the composed
# colorings under lockstep, staggered and loose-guess workloads, the
# arboricity MIS under loose guesses and its uniform transform (the
# silent-stretch skip path), the graph corpus lookup and the run-level sweep
# benchmarks, one iteration each and every line with
# -benchmem, so an allocation regression in any pooled/flattened path is
# visible in the log: a regression that breaks or grossly slows a hot path
# fails loudly. CI's "Perf smoke" step runs this target, so the list exists
# only here.
bench:
	$(GO) test -run xxx -bench BenchmarkPaper -benchmem -benchtime=1x .
	$(GO) test -run xxx -bench 'BenchmarkSweep' -benchmem -benchtime=1x .
	$(GO) test -run xxx -bench 'BenchmarkEngine|BenchmarkCompose' -benchmem -benchtime=1x ./internal/local
	$(GO) test -run xxx -bench BenchmarkBitset -benchmem -benchtime=1x ./internal/bitset
	$(GO) test -run xxx -bench 'BenchmarkAlternating|BenchmarkPlanStep' -benchmem -benchtime=1x ./internal/core
	$(GO) test -run xxx -bench BenchmarkCorpus -benchmem -benchtime=1x ./internal/graph
	$(GO) test -run xxx -bench 'BenchmarkLineLift|BenchmarkPowerLift|BenchmarkProductLift' -benchmem -benchtime=1x ./internal/algorithms/lift
	$(GO) test -run xxx -bench 'BenchmarkArbMISLoose|BenchmarkArbMISUniform' -benchmem -benchtime=1x ./internal/algorithms/arbmis

# Regenerate the profile: BenchmarkPaper runs every spec of scenarios/paper
# through the sweep scheduler, three iterations each, under one CPU profile
# written to the canonical cmd/localbench/default.pgo, which is then copied
# next to localserved and localsweepd. The test binary goes to a temporary
# directory, so only the three profiles change.
pgo:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) test -run '^$$' -bench BenchmarkPaper -benchtime 3x -cpuprofile cmd/localbench/default.pgo -o "$$tmp/unilocal.test" .
	cp cmd/localbench/default.pgo cmd/localserved/default.pgo
	cp cmd/localbench/default.pgo cmd/localsweepd/default.pgo

# Assert the committed profiles are loadable and applied: a default build of
# each profiled binary must record a `-pgo=<path>/cmd/<name>/default.pgo`
# build setting in `go version -m`, and a `-pgo=off` build must record none
# (so the grep can fail). A corrupt profile fails its build; a missing one
# fails its grep.
verify-pgo:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	for c in localbench localserved localsweepd; do \
		$(GO) build -o $$tmp/$$c ./cmd/$$c && \
		$(GO) version -m $$tmp/$$c | grep -E "build[[:space:]]+-pgo=.*cmd/$$c/default\.pgo" || \
		{ echo "verify-pgo: cmd/$$c is not built with its default.pgo (run make pgo)" >&2; exit 1; }; \
	done && \
	$(GO) build -pgo=off -o $$tmp/no-pgo ./cmd/localbench && \
	! $(GO) version -m $$tmp/no-pgo | grep -E 'build[[:space:]]+-pgo=' && \
	echo "verify-pgo: profile applied by default builds of localbench, localserved and localsweepd, absent under -pgo=off"
