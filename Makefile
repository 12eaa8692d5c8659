# Convenience targets for the reproduction. Everything is plain `go`
# under the hood; no other tools are required.

GO ?= go

.PHONY: all build test race bench bench-figures bench-baseline bench-check bench-check-ci fuzz trace-cache result-cache cache-gc vet lint loc results quick-results results-check clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static analysis beyond vet, pinned so local and CI agree. Fetches the
# tool through the module proxy on first use (needs network; CI runs it,
# offline sandboxes can skip). Production functions that only tests call
# are gated offline too, by the root package's TestNoTestOnlyFunctions,
# which `make test` and CI's vet step run.
STATICCHECK_VERSION ?= 2024.1.1
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

test:
	$(GO) test ./...

# Go source lines outside the benchmark module, non-test and test: the
# code size ROADMAP.md tracks from change to change.
GO_SOURCES = find . \( -path ./bench -o -path './.*' \) -prune -o -name '*.go'
loc:
	@echo "non-test Go lines: $$($(GO_SOURCES) ! -name '*_test.go' -print | xargs cat | wc -l)"
	@echo "test Go lines:     $$($(GO_SOURCES) -name '*_test.go' -print | xargs cat | wc -l)"

# Full suite under the race detector (exercises the sweep engine, the
# single-flight measurement cache, and the mpsim coordinator).
race:
	$(GO) test -race ./...

# One benchmark per paper table/figure plus the ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# The acceptance benchmarks: the single-pass measurement fast path
# (Figure 7/8 regeneration, live, trace-replay with and without the
# replay-verify pass a new process pays, and result-cache warm),
# the GSPN CPI experiments (Table 3, Figure 12), the multiprocessor
# SPLASH runs (Figures 13-17), the family-shared design-space search
# (replay-fed), the stack-distance profiling layer alone (Figure 7/8
# CacheSet and a design-space family, in Mref/s), the mpsim
# coordinator alone, the coherence model alone (a recorded OCEAN access
# stream replayed into a fresh machine, in Mop/s), and the GSPN event
# loop alone (a small mixed net and a 16-bank net shaped like the
# cpumodel nets, in Mfiring/s), the trace codec alone (decode and
# encode of one recorded workload stream in Mref/s, and the replay-time
# integrity check in bytes/s), the Figure 2 memory-hierarchy walk alone
# (ns per access), and the VM alone (one workload program at a fixed
# instruction budget, in Minstr/s), with allocation stats. The
# coordinator, GSPN and memory-hierarchy benchmarks report ns per
# operation, step or access, so they run a fixed million of them rather
# than two; the trace, coherence and VM benchmarks run a fixed hundred
# passes.
bench-figures:
	$(GO) test -run '^$$' -bench 'Designspace$$|Fig[78](Replay|ReplayCold|Warm)?$$|Fig12$$|Table3$$|Fig1[3-7]|CacheSetRefs$$' -benchmem -benchtime 2x . ./internal/workload
	$(GO) test -run '^$$' -bench 'CoordinatorOps$$' -benchmem -benchtime 1000000x ./internal/mpsim
	$(GO) test -run '^$$' -bench 'MachineAccess$$' -benchmem -benchtime 100x ./internal/coherence
	$(GO) test -run '^$$' -bench 'SimStep(Banks)?$$' -benchmem -benchtime 1000000x ./internal/gspn
	$(GO) test -run '^$$' -bench '(Reader|Writer)Refs$$|Check$$' -benchmem -benchtime 100x ./internal/trace
	$(GO) test -run '^$$' -bench 'AccessNs$$' -benchmem -benchtime 1000000x ./internal/memsys
	$(GO) test -run '^$$' -bench 'RunProgram$$' -benchmem -benchtime 100x ./internal/vm

# Record the current Fig7/Fig8 numbers as the checked-in baseline.
bench-baseline:
	$(MAKE) -s bench-figures | $(GO) run ./cmd/benchguard -write -baseline BENCH_baseline.json

# Compare against the baseline; fails on >20% ns/op or >2% allocs/op
# regression. CI uses bench-check-ci, which skips the wall-clock
# comparison (hardware-dependent) and gates on allocs/op only
# (deterministic). -require keeps the guard honest: the acceptance
# benchmarks must actually run, so the observability hooks cannot
# regress them unnoticed by a pattern that matches nothing.
BENCH_REQUIRED = BenchmarkFig7,BenchmarkFig8,BenchmarkFig7Replay,BenchmarkFig7ReplayCold,BenchmarkFig8Replay,BenchmarkFig7Warm,BenchmarkTable3,BenchmarkFig12,BenchmarkFig13LU,BenchmarkFig14MP3D,BenchmarkFig15Ocean,BenchmarkFig16Water,BenchmarkFig17Pthor,BenchmarkDesignspace,BenchmarkCacheSetRefs,BenchmarkFamilyCacheSetRefs,BenchmarkCoordinatorOps,BenchmarkMachineAccess,BenchmarkSimStep,BenchmarkSimStepBanks,BenchmarkReaderRefs,BenchmarkWriterRefs,BenchmarkCheck,BenchmarkAccessNs,BenchmarkRunProgram

bench-check:
	$(MAKE) -s bench-figures | $(GO) run ./cmd/benchguard -baseline BENCH_baseline.json -threshold 0.20 -require $(BENCH_REQUIRED)

bench-check-ci:
	$(MAKE) -s bench-figures | $(GO) run ./cmd/benchguard -baseline BENCH_baseline.json -time=false -require $(BENCH_REQUIRED)

# Exercise the trace codec, trace-store replay, assembler, VM step,
# GSPN equivalence, designspace axis-flag, machine-description and
# daemon-request fuzz targets for a minute each (CI runs a 10-second
# smoke; this is the pre-commit depth).
FUZZTIME ?= 60s
fuzz:
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReaderNext -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzFileRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/tracestore -run '^$$' -fuzz FuzzStoreReplay -fuzztime $(FUZZTIME)
	$(GO) test ./internal/asm -run '^$$' -fuzz FuzzAssemble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/vm -run '^$$' -fuzz FuzzStep -fuzztime $(FUZZTIME)
	$(GO) test ./internal/gspn -run '^$$' -fuzz FuzzSimEquivalence -fuzztime $(FUZZTIME)
	$(GO) test ./cmd/iramsim -run '^$$' -fuzz FuzzParseAxis -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz FuzzFromJSON -fuzztime $(FUZZTIME)
	$(GO) test ./internal/runner -run '^$$' -fuzz FuzzRequest -fuzztime $(FUZZTIME)

# Pre-record every workload's reference stream into the local trace
# cache; later `iramsim -trace-dir $(TRACE_DIR) ...` runs skip the VM.
TRACE_DIR ?= .trace-cache
trace-cache:
	$(GO) run ./cmd/iramsim -record $(TRACE_DIR)

# Pre-warm the on-disk result cache with one full-fidelity pass over
# every experiment; later `iramsim` runs (same fidelity) decode the
# assembled results instead of re-simulating. The cache is on by
# default under $(RESULT_DIR); -no-result-cache opts out.
RESULT_DIR ?= .result-cache
result-cache:
	$(GO) run ./cmd/iramsim -result-cache $(RESULT_DIR) all > /dev/null

# Prune the result cache to a size cap (oldest entries evicted first;
# every evicted entry regenerates on the next miss).
CACHE_MAX_BYTES ?= 268435456
cache-gc:
	$(GO) run ./cmd/iramsim -result-cache $(RESULT_DIR) -result-cache-max-bytes $(CACHE_MAX_BYTES)

# Regenerate every experiment at full fidelity (~15 serial minutes,
# spread across all cores by default; see the iramsim -j flag).
results:
	$(GO) run ./cmd/iramsim all | tee full_results.txt

# CI-sized run (~1 minute).
quick-results:
	$(GO) run ./cmd/iramsim -quick all

# Regenerate the full results and compare byte-for-byte against the
# checked-in golden transcript (testdata/full_results.txt). A diff means
# the reproduction's numbers moved: either a regression, or a deliberate
# change that should update the golden (cp full_results.txt
# testdata/full_results.txt) with an explanation in the commit.
results-check: results
	diff -u testdata/full_results.txt full_results.txt

clean:
	rm -f test_output.txt bench_output.txt
