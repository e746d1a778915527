GO ?= go
FUZZTIME ?= 10s
BENCHSCALE ?= 0.05

.PHONY: build vet fmt taqvet taqvet-roots taqvet-annotations mutations-full test race fuzz bench bench-gate bench-floor check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails when gofmt would rewrite any file, and names each one.
fmt:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt -l lists:"; echo "$$files"; exit 1; fi

# taqvet is the repo's own determinism & concurrency analyzer suite
# (docs/static-analysis.md). It exits non-zero on any finding, stale
# //taq:allow or malformed //taq: directive.
taqvet:
	$(GO) run ./cmd/taqvet -audit ./...

# taqvet-roots regenerates the committed hotpath-closure baseline.
# Run it after annotating (or retiring) a //taq:hotpath root and commit
# the result; TestRepoIsClean compares the live closure against this
# file, so a root that silently loses its annotation fails `go test`.
taqvet-roots:
	$(GO) run ./cmd/taqvet -roots ./... > docs/hotpath-closure.txt

# taqvet-annotations regenerates the committed ownership-annotation
# inventory (//taq:shardowned, //taq:crossshard). Run it after
# annotating (or un-annotating) a type or function and commit the
# result; TestRepoIsClean compares the live inventory against this
# file, so a contract silently added or dropped fails `go test`.
taqvet-annotations:
	$(GO) run ./cmd/taqvet -annotations ./... > docs/taq-annotations.txt

# mutations-full re-derives the first catcher of every seeded mutation
# row (internal/analysis/mutation_test.go): go build, go vet and the
# tier-1 tests on a mutated copy of the module, about a minute a row.
# Run it on an otherwise idle host: the wall-clock emu tests flake
# under load.
mutations-full:
	TAQ_MUTATION_FULL=1 $(GO) test -run TestMutations -timeout 2h -v ./internal/analysis

test:
	$(GO) test ./...

# The race detector only matters where real goroutines run: the
# emulation layer (including the obs recorder + live endpoint under
# concurrent timers), the session and network tests that also run on
# the wall-clock engine, the experiment sweep worker pool, and the
# parallel shard drivers that share one middlebox's aggregator. The
# wall-clock engine's tests run three times over: a flake there shows
# as a failure, not as a lucky pass.
race:
	$(GO) test -race ./internal/obs/... ./internal/workload/...
	$(GO) test -race -count=3 ./internal/emu/...
	$(GO) test -race -count=3 -run OnEmu ./internal/topology
	$(GO) test -race -run 'TestRunPoints|TestParallelSweep' ./experiments
	$(GO) test -race -run TestShardedDriversInterleavingFree ./internal/core

# fuzz runs every committed fuzz target for FUZZTIME each (go test
# takes one -fuzz target per invocation).
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzTrackerTransitions$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzFlowIndex$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzDeadlineWheel$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz='^FuzzParseDirectives$$' -fuzztime=$(FUZZTIME) ./internal/analysis
	$(GO) test -run='^$$' -fuzz='^FuzzReceiverReassembly$$' -fuzztime=$(FUZZTIME) ./internal/tcp
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/trace
	$(GO) test -run='^$$' -fuzz='^FuzzEngineOrder$$' -fuzztime=$(FUZZTIME) ./internal/sim

# bench records the full experiment suite's tables + headline metrics
# to BENCH_results.json (see EXPERIMENTS.md's benchmark section). Every
# per-layer cost — engine, tracker, registry, shard dispatch,
# per-discipline packet costs — is a row of the bench ledger
# (go run ./bench).
bench:
	$(GO) run ./cmd/taqbench -json -scale $(BENCHSCALE) -out BENCH_results.json -report-out BENCH_report.txt

# bench-gate runs the perf pipeline's benchmark (bench/README.md) at
# full scale, untraced and then traced, and fails on a non-zero exit or
# any FAIL line. The traced pass does a fixed amount of work and fails
# under 1000 CPU-profile samples; CI's `go run ./bench -seconds 1`
# skips that floor by design, so this is the only place a change that
# makes a workload faster can find out, before the pipeline does, that
# it made it too fast to profile. About four minutes. The filter passes
# the output through; a pipeline alone would report only awk's status.
BENCH_GATE_FILTER = awk '{ print } /^ *FAIL/ || /^bench-gate: exit [^0]/ { bad = 1 } END { exit bad }'
bench-gate:
	{ $(GO) run ./bench -workload all -seed 1; echo "bench-gate: exit $$?"; } | $(BENCH_GATE_FILTER)
	{ $(GO) run ./bench -workload all -seed 1 -trace 1; echo "bench-gate: exit $$?"; } | $(BENCH_GATE_FILTER)

# bench-floor is the guard run of a change that makes a workload cheaper:
# the traced pass alone, one line per workload — name, CPU-profile
# samples, margin over the pipeline's 1000-sample floor — failing when a
# workload has less than 8 % of margin left (or the pass itself fails).
# Run it on a quiet host; about two minutes.
BENCH_FLOOR_MIN = 1080
BENCH_FLOOR_FILTER = awk -v min=$(BENCH_FLOOR_MIN) '\
	$$1 == "==" { wl = $$2 } \
	$$1 == "cpu_share.sim" { n = $$NF; seen++; if (n < min) bad = 1; \
		printf "%-18s %5d %+6.1f%%%s\n", wl, n, (n / 1000 - 1) * 100, (n < min ? "  BELOW " min : "") } \
	/^ *FAIL/ { print; bad = 1 } \
	/^bench-floor: exit [^0]/ { print; bad = 1 } \
	END { exit bad || !seen }'
bench-floor:
	{ $(GO) run ./bench -workload all -seed 1 -trace 1; echo "bench-floor: exit $$?"; } | $(BENCH_FLOOR_FILTER)

check: build vet fmt taqvet test race
