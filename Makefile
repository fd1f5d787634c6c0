# Build/test/bench entry points for the LD-BN-ADAPT reproduction.
#
#   make build   compile everything
#   make fmt     fail if any file is not gofmt-clean
#   make vet     static analysis
#   make test    full unit + property suite (tier-1 gate), including
#                each example's Example golden, in a shuffled order so a
#                test that leans on another's side effects fails (the
#                seed is printed; -shuffle=<seed> replays it)
#   make purego  the kernel packages again with -tags purego (the amd64
#                assembly in internal/tensor — gemm_amd64.s and
#                elem_amd64.s, both tiers: AVX2, and AVX-512 for the
#                float and int8 row kernels and the conv weight
#                gradient's lane kernel — compiled out, so the Go
#                kernels — the spec, int8RowGo among them — carry
#                tensor, nn, resnet and ufld on their own; nn and
#                resnet call the elementwise kernels directly), plus vet of internal/tensor under that tag
#                and under GOARCH=arm64, so the fallbacks
#                (gemm_generic.go, elem_generic.go) and their build
#                tags cannot rot; plain `go vet` already checks both
#                assembly files' frame offsets against their Go
#                declarations; and the examples' Example goldens under
#                the same tag, so every example's printed output is
#                checked end to end against the Go kernels alone
#   make race    race-detector pass over the concurrent packages, plus
#                the long fleet pins whose failover re-homes and drain
#                evacuations -short skips
#   make bench-smoke  one iteration of every testing.B benchmark in
#                every package (today the BenchmarkKernel* rows in
#                internal/tensor and internal/nn,
#                BenchmarkEncodeCheckpoint in internal/serve and
#                BenchmarkCheckpointPass in internal/shard), no memstats: the
#                bit-rot gate that proves they still compile and run.
#                The repo's measurement is the benchmark in bench/
#                (BENCHMARK.json, `bash bench/run.sh`); the allocation
#                pins it used to share with a second tool are tier-1
#                tests (ufld.TestInferForwardAllocationFree*,
#                adapt.TestStepAllocationFree,
#                serve.TestSessionSteadyStateAllocs)
#   make bench-smoke-ext  vet and test the nested bench/ module (the
#                repo's benchmark, BENCHMARK.json): `go build ./...`
#                and `go test ./...` at the root cannot see it, so a
#                change to an API its probes compile against would
#                otherwise surface only when the benchmark is next run
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
#   make fingerprints  every cross-commit pin (the Fingerprint, Golden
#                and MatchesRunOnline tests of adapt, ufld, nn, serve,
#                shard, carlane, govern, sota and experiments) at -cpu
#                1,2,4, then again under -tags purego: the pins were
#                recorded through the Go kernels on one worker count,
#                so a kernel or banding change that moves a bit at
#                another count, or only with the assembly in, fails
#                here (ufld's TestInt8Fingerprint holds the int8
#                rung's logits the same way). make test runs them once,
#                at the box's GOMAXPROCS with the assembly. The same run
#                covers the two host-scheduling pins — shard's
#                TestConcurrentMatchesLockstep (the fork-join barrier
#                against its serial reference) and serve's
#                TestReportIndependentOfWorkerScheduling — whose
#                failures depend on how many CPUs race
#   make fuzz-smoke  ten seconds each of FuzzDecodeCheckpoint, the decoder
#                the fleet's failover path runs on stored checkpoint
#                bytes, FuzzEncodeCheckpoint, the append encoder every
#                checkpoint pass runs, held to the map-based oracle
#                over fuzzed random states, FuzzParsePlan, the parser
#                of ldserve's -chaos spec, and FuzzLoadParams, the
#                reader of the weights file ldtrain writes for ldadapt
#                and ldserve: no input may panic, an accepted
#                checkpoint or weights file must re-encode (re-save)
#                stably, an encoding must equal the oracle's bytes,
#                and an accepted plan must hold only well-formed
#                events. Their seeds are the
#                committed v2 golden, BN layer counts from 0 to 1001,
#                the chaos specs the docs use, or a Tiny detector's
#                SaveParams output, and an empty input; a
#                crasher any of them finds is committed under the package's
#                testdata/fuzz/, where plain `go test` replays it.
#                Minimization is capped at 200 runs per new input:
#                minimizing a mutant of the 12 KB golden takes the 60 s
#                default, which would leave no time to fuzz
#   make calib-check  builds the benchmark as bench/run.sh does, prints
#                the address of main.(*calibrator).rows and its residue
#                mod 64, and fails unless the residue is 0: the speed
#                of the calibrator's timed kernel, and with it every
#                timed row, depends on whether that symbol sits on a
#                64-byte boundary (ROADMAP item 31), so run it after
#                any change to code the benchmark links. Not part of
#                ci: the address depends on the toolchain, and CI tests
#                other Go versions
#   make ci      build + fmt + vet + staticcheck + test + purego + race +
#                fingerprints + chaos-smoke + fleet-smoke + obs-smoke +
#                fuzz-smoke + bench-smoke + bench-smoke-ext

GO ?= go
# Pinned staticcheck: 2024.1.1 supports the go 1.22/1.23 CI matrix.
# Keep in sync with the install step in .github/workflows/ci.yml.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: build fmt vet test purego race fingerprints bench-smoke bench-smoke-ext calib-check staticcheck chaos-smoke fleet-smoke obs-smoke fuzz-smoke ci

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test -shuffle=on ./...

purego:
	$(GO) vet -tags purego ./internal/tensor/
	GOARCH=arm64 $(GO) vet ./internal/tensor/
	$(GO) test -tags purego ./internal/tensor/... ./internal/nn/... ./internal/resnet/... ./internal/ufld/... ./examples/...

# The serving engine, the fleet coordinator and the tensor matmul pool
# are the concurrent hot paths; govern drives serve's epoch pipeline,
# adapt owns the step every serve worker runs on its replica, and
# stream's deploy tests run the engine again, so every one of them runs
# under the race detector. Of the layer packages, nn and resnet run
# too (resnet.BasicBlock is the one layer outside nn with a scratch of
# its own, ~4 s under -race -short); ufld stays out, because its
# fixture-trained tests take ~50 s there, and adapt's and serve's
# tests already drive the whole model under the detector. -short skips the
# long seeded acceptance pins (they rerun whole fleets) — make test still
# runs them race-free. The second line runs shard's fleet pins that
# -short skips under the detector after all: their migration, failover
# and drain scenarios are the only runs of the coordinator's direct
# session calls between barriers (stream moves, energize, Finish).
race:
	$(GO) test -race -short ./internal/par/... ./internal/serve/... ./internal/shard/... ./internal/govern/... ./internal/tensor/... ./internal/nn/... ./internal/resnet/... ./internal/adapt/... ./internal/stream/...
	$(GO) test -race -run 'TestConcurrentMatchesLockstep|TestChaosRecoveryPin|TestRollingUpgrade' ./internal/shard/

PINS = 'Fingerprint|Golden|MatchesRunOnline|MatchesLockstep|IndependentOfWorkerScheduling'
PIN_PKGS = ./internal/adapt/ ./internal/ufld/ ./internal/nn/ ./internal/serve/ ./internal/shard/ ./internal/carlane/ ./internal/govern/ ./internal/sota/ ./internal/experiments/

fingerprints:
	$(GO) test -cpu 1,2,4 -run $(PINS) $(PIN_PKGS)
	$(GO) test -tags purego -cpu 1,2,4 -run $(PINS) $(PIN_PKGS)

bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

bench-smoke-ext:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Same build flags and environment as bench/run.sh (only the cache
# location differs, which does not move a symbol); the binary lands in
# the git-ignored .bench_build/.
calib-check:
	@mkdir -p .bench_build
	@CGO_ENABLED=0 GOTOOLCHAIN=local GOPROXY=off $(GO) build -C bench -o "$(CURDIR)/.bench_build/calib-check" .
	@addr="$$($(GO) tool nm .bench_build/calib-check | awk '$$3 == "main.(*calibrator).rows" { print $$1 }')"; \
	if [ -z "$$addr" ]; then echo "calib-check: main.(*calibrator).rows not found"; exit 1; fi; \
	res=$$((0x$$addr % 64)); \
	echo "main.(*calibrator).rows at 0x$$addr, residue mod 64 = $$res"; \
	if [ "$$res" -ne 0 ]; then echo "calib-check: not 64-byte aligned; rewrite the new code into an equivalent form that moves it back (ROADMAP item 31)"; exit 1; fi

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
# board count where every layer (the fork-join barrier, group placers,
# admission, cross-group rebalance) is live.
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

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeCheckpoint -fuzztime 10s -fuzzminimizetime 200x ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzEncodeCheckpoint -fuzztime 10s -fuzzminimizetime 200x ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzParsePlan -fuzztime 10s -fuzzminimizetime 200x ./internal/shard
	$(GO) test -run '^$$' -fuzz FuzzLoadParams -fuzztime 10s -fuzzminimizetime 200x ./internal/nn

ci: build fmt vet staticcheck test purego race fingerprints chaos-smoke fleet-smoke obs-smoke fuzz-smoke bench-smoke bench-smoke-ext
