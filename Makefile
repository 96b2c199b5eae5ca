# Build/test/bench entry points, including the PGO workflow from ISSUE 10:
# `make pgo` regenerates the committed default.pgo profile from the
# representative localbench sweep over scenarios/paper and distributes it
# into every cmd/* main package (the Go toolchain auto-applies a default.pgo
# only when it sits in the main package's own directory), and `make verify-pgo` proves the
# committed profile is loadable and actually applied by a plain `go build`
# (the CI pgo-gate job runs it on every commit).

GO ?= go
PGO_ITERS ?= 3

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
# shared Set via AddAtomic, and the local package's bitset differential
# (5 graph families × 3 schedulers × worker counts) must hold under the race
# detector; internal/algorithms/lift and internal/algorithms/matching because
# the line, Power and Product run-digest tables (every scheduler kind, under
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

# One-shot run of the headline Table 1 benchmark, the engine
# microbenchmarks, the transformer hot-path benchmarks, the line lift on the
# matching-geometric-dense host, the Power and Product lifts on the
# rulingset-smallworld and deg-coloring-hypercube-dense shapes, the composed
# colorings under lockstep, staggered and loose-guess workloads, the
# arboricity MIS under loose guesses and its uniform transform (the
# silent-stretch skip path), the derived-construction builds and the
# run-level sweep benchmarks, one iteration each and every line with
# -benchmem, so an allocation regression in any pooled/flattened path is
# visible in the log: a regression that breaks or grossly slows a hot path
# fails loudly. CI's "Perf smoke" step runs this target, so the list exists
# only here.
bench:
	$(GO) test -run xxx -bench BenchmarkTable1_LubyMIS -benchmem -benchtime=1x -short .
	$(GO) test -run xxx -bench 'BenchmarkSweep' -benchmem -benchtime=1x .
	$(GO) test -run xxx -bench 'BenchmarkEngine|BenchmarkCompose' -benchmem -benchtime=1x ./internal/local
	$(GO) test -run xxx -bench BenchmarkBitset -benchmem -benchtime=1x ./internal/bitset
	$(GO) test -run xxx -bench 'BenchmarkAlternating|BenchmarkPlanStep' -benchmem -benchtime=1x ./internal/core
	$(GO) test -run xxx -bench 'BenchmarkDerive|BenchmarkCorpus' -benchmem -benchtime=1x ./internal/graph
	$(GO) test -run xxx -bench 'BenchmarkLineLift|BenchmarkPowerLift|BenchmarkProductLift' -benchmem -benchtime=1x ./internal/algorithms/lift
	$(GO) test -run xxx -bench 'BenchmarkArbMISLoose|BenchmarkArbMISUniform' -benchmem -benchtime=1x ./internal/algorithms/arbmis

# Regenerate default.pgo: run the paper corpus (scenarios/paper) $(PGO_ITERS)
# times under one CPU profile, then copy the profile next to each main
# package.
# The root default.pgo is the canonical artifact; the cmd/*/default.pgo
# copies are what `go build ./...` picks up per binary.
pgo:
	$(GO) run ./cmd/localbench -scenarios scenarios/paper -pgo default.pgo -pgo-iters $(PGO_ITERS)
	for d in cmd/*/; do cp default.pgo $$d; done

# Assert the committed profile is loadable and applied: a default build of a
# main package must record a `-pgo=<path>/default.pgo` build setting in
# `go version -m`, and a `-pgo=off` build of the same package must not
# record any -pgo setting. A corrupt or missing profile fails the first
# build or the first grep.
verify-pgo:
	@test -f cmd/localbench/default.pgo || { echo "verify-pgo: cmd/localbench/default.pgo missing (run make pgo)"; exit 1; }
	@tmp=$$(mktemp -d) && \
	$(GO) build -o $$tmp/with-pgo ./cmd/localbench && \
	$(GO) build -pgo=off -o $$tmp/no-pgo ./cmd/localbench && \
	$(GO) version -m $$tmp/with-pgo | grep -E 'build[[:space:]]+-pgo=.*default\.pgo' && \
	! $(GO) version -m $$tmp/no-pgo | grep -E 'build[[:space:]]+-pgo=' && \
	rm -rf $$tmp && echo "verify-pgo: profile applied by default build, absent under -pgo=off"
