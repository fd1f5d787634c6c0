# Build/test/bench entry points for the LD-BN-ADAPT reproduction.
#
#   make build   compile everything
#   make fmt     fail if any file is not gofmt-clean
#   make vet     static analysis
#   make test    full unit + property suite (tier-1 gate)
#   make purego  the kernel packages again with -tags purego (the amd64
#                assembly in internal/tensor — gemm_amd64.s and
#                elem_amd64.s — compiled out, so the Go kernels — the
#                spec — carry tensor, nn, resnet and ufld on their
#                own; nn and resnet call the elementwise kernels
#                directly), plus vet of internal/tensor under that tag
#                and under GOARCH=arm64, so the fallbacks
#                (gemm_generic.go, elem_generic.go) and their build
#                tags cannot rot; plain `go vet` already checks both
#                assembly files' frame offsets against their Go
#                declarations
#   make race    race-detector pass over the concurrent packages
#   make bench   every benchmark in every package for BENCHTIME
#                (default 100ms — a fixed duration, not 1x, so numbers
#                are averages over many iterations instead of single
#                cold-start samples), with -benchmem allocation stats —
#                the measurement run bench-json serializes for CI
#                artifacts
#   make bench-smoke  one iteration of every benchmark in every
#                package, no memstats: the cheap bit-rot gate (bench
#                measures, bench-smoke only proves the benchmarks
#                still compile and execute)
#   make bench-smoke-ext  vet and test the nested bench/ module (the
#                repo's benchmark, BENCHMARK.json): `go build ./...`
#                and `go test ./...` at the root cannot see it, so a
#                change to an API its probes compile against would
#                otherwise surface only when the benchmark is next run
#   make bench-json   run the bench suite (BENCHTIME per benchmark)
#                and write BENCH_serve.json (benchmark name → ns/op,
#                B/op, allocs/op, per-benchmark gomaxprocs, plus every
#                b.ReportMetric column: frames/s, steps/s,
#                coord-share), stamped with the git commit SHA and Go
#                version so uploaded artifacts form a comparable perf
#                trajectory; doubles as the bit-rot gate in make ci —
#                one bench run covers both the smoke and the artifact.
#                Convention: the manifest is committed at the repo
#                root, so refresh it (and include it in the commit)
#                whenever a change moves the serving or fleet numbers
#   make serve-bench  the multi-stream serving benchmark only
#   make staticcheck  honnef.co staticcheck at a pinned version; uses a
#                PATH binary if present (CI installs one), otherwise
#                fetches via `go run`, and skips with a notice when the
#                tool is unavailable offline — the CI workflow always
#                has it, so the gate cannot silently rot there
#   make chaos-smoke  seeded fault-tolerance pins (board kill at burst
#                peak, rolling upgrade) plus an ldserve -chaos run, so
#                the CLI failover path cannot rot while the package
#                tests stay green
#   make fleet-smoke  one short-horizon ldserve run at fleet scale (64
#                boards × 256 shared-scene streams in groups of 16,
#                admission gate on), so the hierarchical-runtime CLI
#                path — groups, admission, coordinator-overhead report
#                — cannot rot while the package tests stay green
#   make obs-smoke    one observed fleet run (-trace-out/-metrics-out/
#                -epoch-csv, written under the git-ignored out/)
#                validated by cmd/tracecheck: the trace
#                must parse as Chrome trace JSON, spans must nest and
#                async frame intervals must balance, so the Perfetto
#                export path cannot rot while the package tests stay
#                green
#   make alloc-gate   run the steady-state serving benchmark (and the
#                infer forward at -cpu 4, exercising the parallel
#                kernel pool) with -benchmem at fixed iteration counts
#                and hold their allocs/op against the committed
#                ALLOC_BUDGET via cmd/allocgate — the CI tripwire for
#                regressions that re-introduce per-frame allocations
#                into the serve loop or the pooled kernel dispatch
#   make ci      build + fmt + vet + staticcheck + test + purego + race +
#                chaos-smoke + fleet-smoke + obs-smoke + alloc-gate +
#                bench-smoke-ext + bench-json

GO ?= go
# Pinned staticcheck: 2024.1.1 supports the go 1.22/1.23 CI matrix.
# Keep in sync with the install step in .github/workflows/ci.yml.
STATICCHECK_VERSION ?= 2024.1.1
GIT_SHA := $(shell git rev-parse HEAD 2>/dev/null || echo unknown)
# Fixed measurement duration for bench/bench-json: 1x samples a single
# cold iteration whose ns/op swings with scheduler noise; a fixed
# -benchtime averages enough iterations for the manifest numbers to be
# comparable across commits.
BENCHTIME ?= 100ms

.PHONY: build fmt vet test purego race bench bench-smoke bench-smoke-ext bench-json serve-bench staticcheck chaos-smoke fleet-smoke obs-smoke alloc-gate ci

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

purego:
	$(GO) vet -tags purego ./internal/tensor/
	GOARCH=arm64 $(GO) vet ./internal/tensor/
	$(GO) test -tags purego ./internal/tensor/... ./internal/nn/... ./internal/resnet/... ./internal/ufld/...

# The serving engine, the fleet coordinator and the tensor matmul pool
# are the concurrent hot paths; govern drives serve's epoch pipeline
# and stream feeds them all, and adapt owns the step every serve worker
# runs on its replica, so every one of them runs under the race
# detector. -short skips the long seeded acceptance pins (they rerun
# whole fleets and probe no extra concurrency) — make test still runs
# them race-free.
race:
	$(GO) test -race -short ./internal/par/... ./internal/serve/... ./internal/shard/... ./internal/govern/... ./internal/stream/... ./internal/tensor/... ./internal/nn/... ./internal/adapt/...

bench:
	$(GO) test -run xxx -bench . -benchmem -benchtime $(BENCHTIME) ./...

bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

bench-smoke-ext:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Separate test and serialize steps so a benchmark failure fails the
# target instead of being masked by the pipe (benchjson would happily
# serialize a partial run). Three measurement runs feed one manifest:
# the root serving/figure suite at the host's default GOMAXPROCS (the
# historical rows), the tensor/nn kernel benchmarks swept at -cpu 1,4
# (the worker-pool speedup-curve rows — names gain a -4 suffix and a
# per-benchmark gomaxprocs field in the manifest), and the end-to-end
# infer/adapt benchmarks again at -cpu 4 so the model-level speedup is
# archived next to the kernel-level one.
bench-json:
	$(GO) test -run xxx -bench . -benchmem -benchtime $(BENCHTIME) . > bench.out
	$(GO) test -run xxx -bench Kernel -benchmem -benchtime $(BENCHTIME) -cpu 1,4 ./internal/tensor/ ./internal/nn/ >> bench.out
	$(GO) test -run xxx -bench 'Fig2Inference|Fig2AdaptStepBS4' -benchmem -benchtime $(BENCHTIME) -cpu 4 . >> bench.out
	$(GO) run ./cmd/benchjson -o BENCH_serve.json -sha $(GIT_SHA) < bench.out
	@rm -f bench.out

serve-bench:
	$(GO) test -run xxx -bench BenchmarkServeMultiStream -benchtime 3x .

# A PATH binary wins (CI installs the pinned version, so findings fail
# the build there); otherwise probe whether the module is fetchable
# before running, so an offline checkout degrades to a notice instead
# of conflating "cannot download the tool" with "the tool found bugs".
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	elif $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...; \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) unavailable (offline?); skipping"; \
	fi

# The package pins cover recovery semantics; the ldserve run proves
# the -chaos/-ckpt-every flag path end to end on a tiny fleet.
chaos-smoke:
	$(GO) test -run 'TestChaosRecoveryPin|TestRollingUpgrade|TestMembershipSurvivesBoardZero' ./internal/shard/
	$(GO) run ./cmd/ldserve -streams 4 -frames 12 -fps 4 -boards 2 -workers 1 -epochs 1 \
		-epoch-ms 250 -ckpt-every 1 -chaos kill:hot@2,join@4 >/dev/null

# The package tests pin the hierarchical runtime's semantics; this run
# proves the -groups/-admit/-shared-scenes flag path end to end at a
# board count where every layer (actors, group placers, admission,
# cross-group rebalance) is live.
fleet-smoke:
	$(GO) run ./cmd/ldserve -streams 256 -frames 4 -fps 4 -boards 64 -workers 1 -epochs 1 \
		-epoch-ms 250 -govern hysteresis -migrate -consolidate -groups 16 \
		-shared-scenes -admit queue >/dev/null

# The package tests pin trace determinism; this run proves the
# -trace-out/-metrics-out/-epoch-csv flag path end to end — a governed
# fleet with migration and a mid-run kill writes all three outputs and
# tracecheck holds the trace to the Chrome trace-event invariants
# Perfetto needs (parse, span nesting, async balance).
obs-smoke:
	@mkdir -p out
	$(GO) run ./cmd/ldserve -streams 8 -frames 24 -fps 8 -boards 4 -workers 1 -epochs 1 \
		-epoch-ms 250 -govern predictive -migrate -chaos kill:hot@4 \
		-trace-out out/obs-trace.json -metrics-out out/obs-metrics.txt -epoch-csv out/obs-epochs.csv >/dev/null
	$(GO) run ./cmd/tracecheck out/obs-trace.json

# Fixed -benchtime 30x (not a duration): the budget is calibrated in
# epochs, and a fixed epoch count keeps the amortized arena/warmup
# share of allocs/op comparable across runners. Two steps so a
# benchmark failure fails the target instead of being masked by the
# pipe.
# Two gated benchmarks: the serve control loop at the host's default
# GOMAXPROCS, and the infer forward at -cpu 4 so the worker-pool
# dispatch path itself is held to zero steady-state allocations
# (allocgate strips the -cpu name suffix, so one budget line covers
# every GOMAXPROCS variant).
alloc-gate:
	$(GO) test -run xxx -bench BenchmarkServeSteadyState -benchmem -benchtime 30x . > alloc-gate.out
	$(GO) test -run xxx -bench 'BenchmarkFig2Inference$$' -benchmem -benchtime 50x -cpu 4 . >> alloc-gate.out
	$(GO) run ./cmd/allocgate -budget ALLOC_BUDGET < alloc-gate.out
	@rm -f alloc-gate.out

ci: build fmt vet staticcheck test purego race chaos-smoke fleet-smoke obs-smoke alloc-gate bench-smoke-ext bench-json
