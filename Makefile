# Tier-1 verification gate (see ROADMAP.md). `make check` must pass
# before every commit.

GOFILES := $(shell find . -name '*.go' -not -path './.git/*')

.PHONY: check fmt vet build test race bench bench-sim bench-cluster

check: fmt vet build race

fmt:
	@out="$$(gofmt -l $(GOFILES))"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	go vet ./...

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Quick experiment pass with run accounting: wall/CPU/speedup per
# experiment, written to BENCH_experiments.json (schema vscale-bench/v1)
# — -benchworkers re-runs the whole selection at several worker counts,
# asserts the passes print identical bytes, and records the wall-clock
# series under "parallel". bench-cluster runs the cluster fleet
# shoot-out, the fleetscale executor sweep (hosts × workers, wall
# seconds and speedups in each entry's "metrics" map) and the warmfork
# amortization series (straight vs warm-once-fork-per-policy walls and
# the resulting speedup) into BENCH_cluster.json, whose
# cost_vcpu_seconds and attainment per scaling policy track the
# cost-vs-attainment frontier over time, plus the elasticity bake-off
# (vertical vs horizontal vs hybrid arms, each with cost, attainment,
# migration and replica counts under "bakeoff/<arm>/..."). bench-sim records the
# event-core microbenchmarks, the guest segment-path and httpd request-path
# microbenchmarks, and the end-to-end fleet-executor and checkpoint/restore
# benchmarks as ns/op + allocs/op in BENCH_sim.json (schema
# vscale-simbench/v1), each tagged with its package.
bench: bench-cluster bench-sim
	go run ./cmd/vscale-experiments -quick -benchworkers 1,2,4 -benchjson BENCH_experiments.json >/dev/null

bench-cluster:
	go run ./cmd/vscale-experiments -experiment cluster,fleetscale,warmfork,bakeoff -quick -benchjson BENCH_cluster.json >/dev/null

bench-sim:
	{ go test -run='^$$' -bench=. -benchmem ./internal/sim/... ; \
	  go test -run='^$$' -bench='^BenchmarkGuestSegment$$' -benchmem ./internal/guest/ ; \
	  go test -run='^$$' -bench='^BenchmarkHTTPDRequest$$' -benchmem ./internal/workload/httpd/ ; \
	  go test -run='^$$' -bench='^Benchmark(RunFleet|CheckpointRestore)$$' -benchmem . ; } | go run ./cmd/vscale-simbench -o BENCH_sim.json
