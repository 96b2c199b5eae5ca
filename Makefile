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

# The same package list as the CI test job's race step.
race:
	$(GO) test -race -short ./internal/bitset ./internal/local ./internal/graph \
		./internal/sweep ./internal/engines ./internal/scenario ./internal/serve \
		./internal/fabric/... ./internal/job ./internal/algorithms/lift \
		./internal/algorithms/matching ./internal/algorithms/linial \
		./internal/core ./internal/algorithms/arbmis

# The same benchmark list as the CI test job's "Perf smoke" step, one
# iteration each and every line with -benchmem.
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
