GO ?= go
FUZZTIME ?= 20s

# COMMIT stamps every BENCH_*.json with the commit it ran on ("-dirty"
# when the tree has uncommitted changes); BENCHJSON converts go test
# -bench output into that document.
COMMIT ?= $(shell git describe --always --dirty 2> /dev/null)
BENCHJSON = $(GO) run ./scripts/benchjson -commit "$(COMMIT)"

.PHONY: build vet fmt-check loc test race bench churn-bench bitset-bench bench-check overhead-bench overhead-gate latency-overhead converge-demo serve-demo serve-bench route-bench route-gate fuzz check

# serve-demo smoke-tests the live telemetry side-car: it starts a real
# sweep with -serve, scrapes /healthz, /runz and /metrics while the
# sweep is in flight, then tears the run down. SERVE_ADDR can be
# overridden when 7070 is taken.
SERVE_ADDR ?= localhost:7070

serve-demo: build
	@$(GO) build -o .serve-demo-ocpsim ./cmd/ocpsim
	@./.serve-demo-ocpsim -figure 5a -reps 40 -serve $(SERVE_ADDR) -format csv > /dev/null 2>&1 & \
	pid=$$!; \
	trap 'kill $$pid 2> /dev/null; rm -f .serve-demo-ocpsim' EXIT; \
	ok=0; \
	for i in $$(seq 1 100); do \
		curl -sf http://$(SERVE_ADDR)/healthz > /dev/null 2>&1 && { ok=1; break; }; \
		kill -0 $$pid 2> /dev/null || break; \
		sleep 0.1; \
	done; \
	[ $$ok -eq 1 ] || { echo "serve-demo: telemetry endpoint never came up" >&2; exit 1; }; \
	echo "== /healthz"; curl -sf http://$(SERVE_ADDR)/healthz; echo; \
	echo "== /runz";    curl -sf http://$(SERVE_ADDR)/runz; echo; \
	echo "== /metrics"; curl -sf http://$(SERVE_ADDR)/metrics | grep -E '^(sweep_|core_|simnet_|ocpmesh_run_info)' | head -20

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# fmt-check fails when any Go file is not gofmt-formatted, listing the
# offenders.
fmt-check:
	@out=$$(gofmt -l .); [ -z "$$out" ] || { echo "gofmt needed:"; echo "$$out"; exit 1; }

# loc prints the non-test and test Go line counts of the module,
# excluding the separate bench/ module: the LOC figures each change
# reports.
loc:
	@find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' -print0 | xargs -0 cat | wc -l | xargs printf 'non-test %s\n'
	@find . -name '*.go' -not -path './bench/*' -name '*_test.go' -print0 | xargs -0 cat | wc -l | xargs printf 'test     %s\n'

# The race target includes the traced channel-engine test, so the
# tracer/metrics layer is exercised under the race detector.
race:
	$(GO) test -race ./...

# bench runs the observability overhead benchmark and converts the
# result to BENCH_obs.json (see scripts/benchjson).
bench:
	$(GO) test -run '^$$' -bench BenchmarkObsOverhead -benchmem . | $(BENCHJSON) > BENCH_obs.json
	@cat BENCH_obs.json

# churn-bench measures incremental vs from-scratch single-fault deltas
# on the 100x100 mesh and records the result in BENCH_churn.json.
churn-bench:
	$(GO) test -run '^$$' -bench BenchmarkChurn -benchmem . | $(BENCHJSON) > BENCH_churn.json
	@cat BENCH_churn.json

# bitset-bench measures the word-parallel (SWAR) bitset engine on large
# meshes with clustered faults and records the result in
# BENCH_bitset.json. The engine runs on one core (64 labels per word
# op), so single-CPU numbers are meaningful.
bitset-bench:
	$(GO) test -run '^$$' -bench BenchmarkBitset -benchmem -timeout 30m . | $(BENCHJSON) > BENCH_bitset.json
	@cat BENCH_bitset.json

# bench-check is the local perf regression gate: it regenerates the
# fast observability benchmark into a scratch file and compares it
# against the committed BENCH_obs.json via octrace (fails on a >25%
# median ns/op regression). CI's bench-check job runs the same gate
# over all committed BENCH_*.json baselines.
bench-check:
	$(GO) test -run '^$$' -bench BenchmarkObsOverhead -benchmem . | $(BENCHJSON) > .bench-obs-fresh.json
	$(GO) run ./cmd/octrace bench check -tol 0.25 BENCH_obs.json .bench-obs-fresh.json
	@rm -f .bench-obs-fresh.json

# serve-bench drives the formation service with the open-loop load
# generator (cmd/ocpload: in-process ocpserve over loopback HTTP, mixed
# delta/route/label-query workload across two tenants) and records
# throughput plus P² latency quantiles in BENCH_serve.json. Three rounds
# are min-merged by benchjson — the minimum is the interference-robust
# sample for the latency lines, same rationale as overhead-bench.
SERVE_BENCH_CMD = $(GO) run ./cmd/ocpload -rate 2000 -duration 3s -seed 7 -bench

serve-bench:
	@rm -f .bench-serve-raw.txt
	@for i in 1 2 3; do \
		echo "== serve sample $$i"; \
		$(SERVE_BENCH_CMD) >> .bench-serve-raw.txt || exit 1; \
	done
	$(BENCHJSON) < .bench-serve-raw.txt > BENCH_serve.json
	@rm -f .bench-serve-raw.txt
	@cat BENCH_serve.json

# route-bench measures the routing query layer — the walk-based Detour
# (idx=off) against the precompiled boundary index (idx=on) on identical
# pair sets up to n=512 — and records the pairs in BENCH_route.json.
route-bench:
	$(GO) test -run '^$$' -bench 'BenchmarkRoute$$' -benchmem -timeout 30m . | $(BENCHJSON) > BENCH_route.json
	@cat BENCH_route.json

# route-gate enforces the indexed router's speedup contract on a fresh
# measurement: at n=512 the walk-based leg must cost at least 10x the
# indexed leg (octrace bench speedup), and the fresh run must not have
# regressed against the committed BENCH_route.json.
route-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkRoute$$' -benchmem -timeout 30m . | $(BENCHJSON) > .bench-route-fresh.json
	$(GO) run ./cmd/octrace bench speedup -min 10 -min-n 512 .bench-route-fresh.json
	$(GO) run ./cmd/octrace bench check -tol 0.25 BENCH_route.json .bench-route-fresh.json
	@rm -f .bench-route-fresh.json

# overhead-bench measures the counter fabric on/off on the bitset
# engine at n=512 (the convergence observatory's acceptance workload)
# and records the pair in BENCH_overhead.json. The off and on legs must
# be sampled INTERLEAVED: `go test -count N` runs each leaf benchmark N
# times consecutively, so slow ambient drift (CPU frequency, noisy
# neighbours) lands entirely on one leg and fakes an overhead of ±15%.
# Running the whole binary several times alternates the legs at a fine
# grain; benchjson then min-merges the repeated samples per name, and
# the minimum is the drift-robust statistic.
OVERHEAD_BENCH_CMD = $(GO) test -run '^$$' -bench 'BenchmarkOverhead/bitset' -benchmem -benchtime 20x -timeout 30m .
OVERHEAD_ROUNDS = 1 2 3 4 5 6 7 8

overhead-bench:
	@rm -f .bench-overhead-raw.txt
	@for i in $(OVERHEAD_ROUNDS); do \
		echo "== overhead sample $$i"; \
		$(OVERHEAD_BENCH_CMD) >> .bench-overhead-raw.txt || exit 1; \
	done
	$(BENCHJSON) < .bench-overhead-raw.txt > BENCH_overhead.json
	@rm -f .bench-overhead-raw.txt
	@cat BENCH_overhead.json

# overhead-gate is the convergence observatory's budget gate: it
# remeasures BenchmarkOverhead with the same interleaved sampling and
# fails when the fabric=on leg exceeds its fabric=off twin by more than
# 5% (octrace bench overhead), then checks the fresh run against the
# committed BENCH_overhead.json like the other perf gates.
overhead-gate:
	@rm -f .bench-overhead-raw.txt
	@for i in $(OVERHEAD_ROUNDS); do \
		echo "== overhead sample $$i"; \
		$(OVERHEAD_BENCH_CMD) >> .bench-overhead-raw.txt || exit 1; \
	done
	$(BENCHJSON) < .bench-overhead-raw.txt > .bench-overhead-fresh.json
	@rm -f .bench-overhead-raw.txt
	$(GO) run ./cmd/octrace bench overhead .bench-overhead-fresh.json
	$(GO) run ./cmd/octrace bench check -tol 0.25 BENCH_overhead.json .bench-overhead-fresh.json
	@rm -f .bench-overhead-fresh.json

# latency-overhead gates the request-latency-attribution budget: the
# served delta path with stage stamping, serve_request emission and
# the flight-recorder ring (stages=on) must stay within 5% of its
# stages=off twin (the -stages=false baseline). Same interleaved
# sampling + min-merge discipline as overhead-bench — see that
# target's comment for why -count-style consecutive legs are wrong.
LATENCY_BENCH_CMD = $(GO) test -run '^$$' -bench 'BenchmarkServeStages' -benchmem -benchtime 200x ./internal/serve
LATENCY_ROUNDS = 1 2 3 4 5 6 7 8

latency-overhead:
	@rm -f .bench-latency-raw.txt
	@for i in $(LATENCY_ROUNDS); do \
		echo "== latency sample $$i"; \
		$(LATENCY_BENCH_CMD) >> .bench-latency-raw.txt || exit 1; \
	done
	$(BENCHJSON) < .bench-latency-raw.txt > .bench-latency-fresh.json
	@rm -f .bench-latency-raw.txt
	$(GO) run ./cmd/octrace bench overhead -max 0.05 .bench-latency-fresh.json
	@rm -f .bench-latency-fresh.json

# converge-demo records a paper-density sweep of every figure with the
# counter fabric and strict invariant monitors on every engine, then
# renders the convergence observatory report (rounds vs d(B) scatter,
# messages vs fault density, per-block tails). CI uploads the same
# report as a workflow artifact.
converge-demo: build
	@rm -rf .converge-demo && mkdir -p .converge-demo
	@for engine in sequential channels bitset; do \
		$(GO) run ./cmd/ocpsim -figure all -n 20 -maxf 4 -step 2 -reps 5 -seed 7 \
			-engine $$engine -strict -trace .converge-demo/$$engine.ndjson -format csv > /dev/null || exit 1; \
	done
	$(GO) run ./cmd/octrace converge .converge-demo/*.ndjson

# fuzz runs each native fuzz target for FUZZTIME (default 20s). The
# targets check the paper's theorems plus sequential/bitset engine
# agreement, the serving decoders against encoding/json, and the
# response indenter against json.Indent, so any reported input is a
# real counterexample.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzFormation$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzRegionOCP$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzServeDelta$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzRoutesRequest$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzAppendIndent$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzRouteParams$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzRouteQuery$$' -fuzztime $(FUZZTIME) ./internal/routeidx
	$(GO) test -run '^$$' -fuzz '^FuzzRegionRuns$$' -fuzztime $(FUZZTIME) ./internal/region

check: build vet test race
