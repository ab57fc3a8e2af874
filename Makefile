GO      ?= go
PKGS    ?= ./...
BENCH   ?= Detect|ParFor|Engine|Delta
DATE    := $(shell date +%Y-%m-%d)

.PHONY: all build test race vet vet-obs telemetry-smoke doctor doctor-smoke bench bench-smoke bench-compare bench-engines bench-engines-smoke bench-incremental bench-incremental-smoke bench-shard bench-shard-smoke clean

all: build vet vet-obs test

build:
	$(GO) build $(PKGS)

test:
	$(GO) test $(PKGS)

# The obs recorder is the one piece of shared mutable state threaded through
# every parallel kernel, so its package races first and at higher count
# before the full-tree race pass.
race:
	$(GO) test -race -count=2 ./internal/obs/...
	# The worklist matching kernel holds no locks and issues no atomics: each
	# vertex writes only its own candidate, row, taken and match entries, and
	# every read of another vertex's entries sits across a pass barrier
	# (propose reads the taken flags, written only by the previous claim
	# phase; claim reads cand, written only by this pass's propose phase).
	# The race detector is the only guard on that argument, so the package
	# races at elevated count.
	$(GO) test -race -count=2 ./internal/matching/...
	# The PLP shared-label sweeps and the ensemble pipeline race at elevated
	# count: the check-before-store mark scatter is the kernel's one
	# concurrently written surface (see the internal/plp package comment for
	# the consistency argument) and the engine hands the PLP scratch across
	# phases.
	$(GO) test -race -count=2 ./internal/plp/...
	# Refinement runs on PLP's sweep loop and races beside it: its only
	# shared writes are PLP's 0→1 mark scatter and the volume roll-up's
	# stripes, each written by one worker and summed after the barrier;
	# proposals go to each vertex's own pending entry and histogram
	# entries to the range's private stripe, and labels and volumes are
	# read only in the phase that does not write them.
	$(GO) test -race -count=2 ./internal/refine/...
	# Contraction's dedup ranges each claim their own k-wide slice of the
	# count stripes as their merge position array; the package races at
	# elevated count so an overlapping slice would show.
	$(GO) test -race -count=2 ./internal/contract/...
	# The scoring sweep's edge-exact spans split a hub's bucket between
	# workers, which write disjoint parts of one bucket's scores and share
	# only the positive-edge flag and the masked-edge tap; the package races
	# at elevated count so an overlapping span would show.
	$(GO) test -race -count=2 ./internal/scoring/...
	$(GO) test -race -run 'Engine|Ensemble' ./internal/core/...
	# The dynamic store's shared mutable surface: overlay readers racing a
	# concurrent mutator (plus the lazy CSR-mirror rebuild they can trigger),
	# the row-owned parallel apply (each worker writing only its own rows,
	# degrees and counter partials), compaction's parallel passes writing
	# disjoint buckets of the packed graph in place or of a fresh repack, the
	# builder's parallel passes (its counting placement's ranges each count
	# into and scatter from their own stripe), the CSR build's ranges (each
	# counting into and scattering from its own stripe, writing disjoint
	# slots of every row), and the incremental serving loop, at elevated
	# count.
	$(GO) test -race -count=2 -run 'Overlay|Delta|Build|Compact|CSR' ./internal/graph/...
	$(GO) test -race -run 'Incremental' ./internal/core/...
	$(GO) test -race $(PKGS)

vet:
	$(GO) vet $(PKGS)

# vet-obs enforces the instrumentation's zero-overhead discipline on top of
# go vet. The go/parser tests in vetobs_test.go, which `go test ./...` runs,
# carry most of it: TestHotLayersTakeRecorderByPointer keeps the recorder
# threaded as the concrete *obs.Recorder through core, matching and contract
# (a nil pointer is a predictable branch; an interface value would add
# dynamic dispatch to the disabled path). The per-edge worker loops must
# flush chunk-local counts through *obs.Hot — never call recorder methods per
# event; that check is TestPerEdgeWorkersTakeNoRecorder. The same file's
# TestNoCSRFieldAccessOutsideGraph keeps raw CSR field access
# (.Offsets/.Adj/.Wgt) inside internal/graph,
# TestKernelsReadNoWallClock keeps raw time.Now calls out of the kernel
# packages (wall-clock reads there go through obs.NowNS),
# TestKernelsTakeNoPositionalWorkerCount keeps the exec.Ctx kernel layers
# from regrowing a positional `p int` worker count, and
# TestMappingPrimitivesOnlyInGraphio keeps syscall.Mmap/Madvise/Munmap and
# unsafe.Slice inside internal/graphio (open graphs through
# graphio.OpenMapped), TestNoRawStderrInLoggedLayers keeps raw
# fmt.Fprint*(os.Stderr, ...) out of cmd/*/*.go and internal/harness (their
# diagnostics go through log/slog via obs.NewLogger), and
# TestProfileWritesOnlyInObs keeps runtime/pprof profile writes inside
# internal/obs (capture through obs.Profiler). Every rule lives in those
# tests, so vet-obs itself is plain go vet over the hot layers.
vet-obs:
	$(GO) vet ./internal/obs/... ./internal/core ./internal/matching ./internal/contract ./internal/scoring

# End-to-end telemetry check, also a CI step: a real detection serves
# /metrics/prom and the scrape comes back non-empty with the counter, gauge,
# and histogram families the serving dashboards depend on; and a served
# convergence ledger shows in /metrics/prom and in /debug/flight's
# convergence rows.
telemetry-smoke:
	$(GO) test -run 'TestLivePrometheusScrape|TestWritePrometheus|TestServeBindsAndServes' -count=1 ./internal/obs/

# The run doctor's offline drift report over a real archive. Bootstraps a
# 5-run baseline at R-MAT scale 14 (big enough that kernel seconds clear the
# doctor's 0.02s absolute floor) into $(DOCTOR_LEDGER) on first use, runs one
# fresh head detection whose -json manifest replaces the head file (a
# one-run archive), and gates on cmd/doctor: non-zero exit when the head
# regressed past the thresholds. DOCTOR_INJECT multiplies the head's timings
# before assessment — the self-test hook doctor-smoke uses to prove the gate
# actually fires (DOCTOR_INJECT=3 must fail).
DOCTOR_INJECT ?= 1
DOCTOR_LEDGER ?= results/doctor_baseline.jsonl
DOCTOR_RUN    := $(GO) run ./cmd/communities -gen rmat -scale 14
doctor:
	mkdir -p results
	@if ! test -s $(DOCTOR_LEDGER); then \
		echo "doctor: bootstrapping 5-run baseline into $(DOCTOR_LEDGER)"; \
		for i in 1 2 3 4 5; do $(DOCTOR_RUN) -ledger $(DOCTOR_LEDGER) >/dev/null || exit 1; done; \
	fi
	$(DOCTOR_RUN) -json results/doctor_head.jsonl >/dev/null
	$(GO) run ./cmd/doctor -baseline $(DOCTOR_LEDGER) -inject $(DOCTOR_INJECT) results/doctor_head.jsonl

# CI's doctor gate self-test: a clean pass must exit zero and an injected 3x
# kernel-seconds regression on the same archive must exit non-zero.
doctor-smoke:
	$(MAKE) doctor
	@if $(MAKE) doctor DOCTOR_INJECT=3; then \
		echo "doctor-smoke: injected 3x regression was NOT flagged"; exit 1; \
	else \
		echo "doctor-smoke: clean run passed, injected regression gated — ok"; \
	fi

# Runs the scratch-arena detection benchmarks (and anything else matching
# $(BENCH)) with allocation stats, archiving the raw `go test -json` event
# stream under results/ for later comparison. The first line of the archive
# is the host and build metadata from cmd/bench -meta, so old streams stay
# attributable. See README.md "Benchmark archive" for the compare workflow.
bench:
	mkdir -p results
	$(GO) run ./cmd/bench -meta | tee results/BENCH_$(DATE).json
	$(GO) test -run=NONE -bench='$(BENCH)' -benchmem -json . | tee -a results/BENCH_$(DATE).json

# One-iteration pass over the detection benchmarks: compiles and exercises
# the full bench path without the cost of a real measurement. CI runs this,
# teeing the JSON event stream to results/BENCH_smoke.json so the workflow
# can archive it and feed it to benchdiff.
bench-smoke:
	mkdir -p results
	$(GO) run ./cmd/bench -meta | tee results/BENCH_smoke.json
	$(GO) test -run=NONE -bench=Detect -benchtime=1x -benchmem -json . | tee -a results/BENCH_smoke.json

# Measures the benchmarks fresh and diffs them against the checked-in
# baseline: a markdown table with Mann–Whitney significance marks, non-zero
# exit on a significant regression beyond 5%. -count=6 gives the U test
# enough samples per side to call a difference real.
bench-compare:
	mkdir -p results
	$(GO) run ./cmd/bench -meta | tee results/BENCH_head.json
	$(GO) test -run=NONE -bench='$(BENCH)' -benchmem -count=6 -json . | tee -a results/BENCH_head.json
	$(GO) run ./cmd/benchdiff -threshold 0.05 results/BENCH_baseline.json results/BENCH_head.json
	$(MAKE) bench-incremental

# The incremental speed gate: run the BENCH_DELTA_MODE-parameterized probe
# once per recomputation mode (from-scratch Detect after each fold as the
# baseline stream, seeded DetectIncremental as the head stream, -count=6
# samples each for the U test) and require incremental re-detection of a 1%
# hot-set churn batch on the scale-14 R-MAT graph to be Mann-Whitney-
# significantly >= 3x faster. Modularity rides along in both streams, so the
# regular regression gate also rejects a significant quality loss.
bench-incremental:
	mkdir -p results
	$(GO) run ./cmd/bench -meta | tee results/DELTA_scratch.json
	BENCH_DELTA_MODE=scratch $(GO) test -run=NONE -bench='^BenchmarkDeltaDetect$$' -count=6 -json . | tee -a results/DELTA_scratch.json
	$(GO) run ./cmd/bench -meta | tee results/DELTA_incremental.json
	BENCH_DELTA_MODE=incremental $(GO) test -run=NONE -bench='^BenchmarkDeltaDetect$$' -count=6 -json . | tee -a results/DELTA_incremental.json
	$(GO) run ./cmd/benchdiff -require-speedup 3 results/DELTA_scratch.json results/DELTA_incremental.json

# One-iteration delta matrix for CI: exercises both recomputation modes'
# bench paths and renders the benchdiff table advisory-only.
bench-incremental-smoke:
	mkdir -p results
	$(GO) run ./cmd/bench -meta | tee results/DELTA_scratch_smoke.json
	BENCH_DELTA_MODE=scratch $(GO) test -run=NONE -bench='^BenchmarkDeltaDetect$$' -benchtime=1x -json . | tee -a results/DELTA_scratch_smoke.json
	$(GO) run ./cmd/bench -meta | tee results/DELTA_incremental_smoke.json
	BENCH_DELTA_MODE=incremental $(GO) test -run=NONE -bench='^BenchmarkDeltaDetect$$' -benchtime=1x -json . | tee -a results/DELTA_incremental_smoke.json
	-$(GO) run ./cmd/benchdiff results/DELTA_scratch_smoke.json results/DELTA_incremental_smoke.json

# The engine speed gate: run the BENCH_ENGINE-parameterized end-to-end
# detection benchmark once per engine (matching as the baseline stream,
# ensemble as the head stream, -count=6 samples each for the U test) and
# require the ensemble to be Mann-Whitney-significantly >= 1.5x faster.
# The modularity metric rides along in both streams, so the regular
# regression gate also rejects a significant quality loss.
bench-engines:
	mkdir -p results
	$(GO) run ./cmd/bench -meta | tee results/ENGINE_matching.json
	BENCH_ENGINE=matching $(GO) test -run=NONE -bench='^BenchmarkEngineDetect$$' -count=6 -json . | tee -a results/ENGINE_matching.json
	$(GO) run ./cmd/bench -meta | tee results/ENGINE_ensemble.json
	BENCH_ENGINE=ensemble $(GO) test -run=NONE -bench='^BenchmarkEngineDetect$$' -count=6 -json . | tee -a results/ENGINE_ensemble.json
	$(GO) run ./cmd/benchdiff -require-speedup 1.5 results/ENGINE_matching.json results/ENGINE_ensemble.json

# One-iteration engine matrix for CI: exercises every engine's bench path and
# renders the benchdiff table advisory-only (no gate; a single sample has no
# statistical power).
bench-engines-smoke:
	mkdir -p results
	$(GO) run ./cmd/bench -meta | tee results/ENGINE_matching_smoke.json
	BENCH_ENGINE=matching $(GO) test -run=NONE -bench='^BenchmarkEngineDetect$$' -benchtime=1x -json . | tee -a results/ENGINE_matching_smoke.json
	$(GO) run ./cmd/bench -meta | tee results/ENGINE_ensemble_smoke.json
	BENCH_ENGINE=ensemble $(GO) test -run=NONE -bench='^BenchmarkEngineDetect$$' -benchtime=1x -json . | tee -a results/ENGINE_ensemble_smoke.json
	-$(GO) run ./cmd/benchdiff results/ENGINE_matching_smoke.json results/ENGINE_ensemble_smoke.json

# The out-of-core shard gate (DESIGN.md §15): the probe streams a scale-16
# R-MAT graph to an mmapcsr file once, then detects it either materialized
# (BENCH_SHARDS=0, the single-image baseline) or sharded straight off the
# mapping (BENCH_SHARDS=4), -count=6 samples each for the U test. The gate
# requires the 4-shard run to be Mann-Whitney-significantly >= 1.5x faster;
# the modularity and heapMB metrics ride along in both streams, so the
# regular regression gate also rejects a significant quality loss or a heap
# blow-up (measured on this class of host: ~2.9x faster, ~0.2x the live
# heap, higher modularity).
bench-shard:
	mkdir -p results
	$(GO) run ./cmd/bench -meta | tee results/SHARD_single.json
	BENCH_SHARDS=0 $(GO) test -run=NONE -bench='^BenchmarkShardDetect$$' -count=6 -json . | tee -a results/SHARD_single.json
	$(GO) run ./cmd/bench -meta | tee results/SHARD_4.json
	BENCH_SHARDS=4 $(GO) test -run=NONE -bench='^BenchmarkShardDetect$$' -count=6 -json . | tee -a results/SHARD_4.json
	$(GO) run ./cmd/benchdiff -require-speedup 1.5 results/SHARD_single.json results/SHARD_4.json

# One-iteration shard matrix for CI: exercises the streaming writer, the
# mapped open, and both detection paths, rendering the benchdiff table
# advisory-only (a single sample has no statistical power).
bench-shard-smoke:
	mkdir -p results
	$(GO) run ./cmd/bench -meta | tee results/SHARD_single_smoke.json
	BENCH_SHARDS=0 $(GO) test -run=NONE -bench='^BenchmarkShardDetect$$' -benchtime=1x -json . | tee -a results/SHARD_single_smoke.json
	$(GO) run ./cmd/bench -meta | tee results/SHARD_4_smoke.json
	BENCH_SHARDS=4 $(GO) test -run=NONE -bench='^BenchmarkShardDetect$$' -benchtime=1x -json . | tee -a results/SHARD_4_smoke.json
	-$(GO) run ./cmd/benchdiff results/SHARD_single_smoke.json results/SHARD_4_smoke.json

clean:
	$(GO) clean -testcache
	rm -f BENCH_*.json
