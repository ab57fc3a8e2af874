package obs

// The convergence ledger is the algorithm-quality counterpart of the
// Recorder's timing view. Where the Recorder answers "where did the time
// go", the Ledger answers the Figure 1/2-style questions the paper's
// evaluation is built on: how fast does the agglomeration converge (merge
// fractions, matching rounds, the modularity trajectory), how skewed is the
// community graph at each level (hub share, size histogram), and did the
// per-level schedule stay inside its analytic imbalance bound. The engine
// records one LevelStats row per contraction level; anomalies (a metric
// decrease, a stalled matching, a schedule past its bound) become structured
// Warnings instead of silently odd numbers.
//
// Like the Recorder, a nil *Ledger is the disabled ledger: every method is a
// nil-check no-op, so the engine threads one pointer and the disabled path
// costs only predictable branches. All per-level derived work (positive-edge
// counts, size histograms) is computed by the engine only when the ledger is
// enabled. A Ledger must not be shared by concurrent detection runs; the
// live metrics endpoint may snapshot it concurrently with a run.

import (
	"fmt"
	"log/slog"
	"math/bits"
	"sync"
	"time"
)

// epoch anchors NowNS; the absolute origin is irrelevant, only differences
// are used.
var epoch = time.Now()

// NowNS returns a monotonic nanosecond timestamp for kernel-side interval
// timing. Kernel packages (scoring/matching/contract/refine) must not read
// the clock directly — the vet-obs lint forbids raw time.Now there — so this
// is the one sanctioned clock for instrumentation that runs only when
// recording is on (see contract's mergeBuckets).
func NowNS() int64 { return int64(time.Since(epoch)) }

// LevelStats is one contraction level's convergence row. "In" quantities
// describe the community graph the level started from; "Out" quantities the
// contracted graph it produced. The engine fills the raw fields;
// Ledger.Record derives MergeFraction, HubShare, and MetricDelta.
type LevelStats struct {
	// Stage labels which engine stage produced the row: StagePLP for one
	// label-propagation sweep, StageCoarsen for the label contraction that
	// follows PLP, StageMatch (or empty, the pre-engine-aware encoding) for
	// one matching-agglomeration level. Level indexes within the stage.
	Stage string `json:"stage,omitempty"`
	// Level is the contraction level (phase) index, 0-based.
	Level int `json:"level"`
	// Vertices and Edges describe the community graph entering the level.
	Vertices int64 `json:"vertices"`
	Edges    int64 `json:"edges"`
	// PositiveEdges counts edges whose merge score was positive — the
	// matching's eligible population.
	PositiveEdges int64 `json:"positive_edges"`
	// MatchedPairs is the number of community pairs the matching selected.
	MatchedPairs int64 `json:"matched_pairs"`
	// MergedVertices is the number of communities the contraction removed:
	// Vertices − OutVertices. Summed over all levels it equals
	// n − (final community count).
	MergedVertices int64 `json:"merged_vertices"`
	// OutVertices and OutEdges describe the contracted graph. OutEdges is 0
	// on an incremental seed row whose stage measured the seed partition by
	// its sweep instead of building the seed graph; the next row, if any,
	// counts that graph in its Edges.
	OutVertices int64 `json:"out_vertices"`
	OutEdges    int64 `json:"out_edges"`
	// MergeFraction is MergedVertices / Vertices (derived).
	MergeFraction float64 `json:"merge_fraction"`
	// Metric is the scoring metric (modularity by default) of the partition
	// entering the level; MetricDelta is the change from the previous level
	// (0 at level 0). Coverage is the in-community weight fraction.
	Metric      float64 `json:"metric"`
	MetricDelta float64 `json:"metric_delta"`
	Coverage    float64 `json:"coverage"`
	// MatchPasses is the number of matching rounds; Drain is the worklist
	// length at the start of each round — the drain curve whose shape shows
	// whether the locally-dominant matching converged geometrically or
	// stalled on contested hubs.
	MatchPasses int     `json:"match_passes"`
	Drain       []int64 `json:"drain,omitempty"`
	// SizeHist is the log2 histogram of post-merge community sizes (original
	// vertices per community): bin b counts communities whose size has
	// bit-length b. The drift of mass toward high bins is the hub
	// concentration that motivated the parity-hashed bucket design.
	SizeHist []int64 `json:"size_hist,omitempty"`
	// MaxBucketLen is the largest adjacency bucket entering the level;
	// HubShare is its share of the edge array (derived).
	MaxBucketLen int64   `json:"max_bucket_len"`
	HubShare     float64 `json:"hub_share"`
	// Active and Changed are PLP sweep counters: the worklist length at the
	// start of the sweep and the number of vertices that adopted a new
	// label. Zero on matching rows; the coarsen row instead carries the
	// whole active-vertex drain curve in Drain.
	Active  int64 `json:"active,omitempty"`
	Changed int64 `json:"changed,omitempty"`
	// SchedImbalance is the built per-level schedule's item-aligned
	// imbalance (max worker share over even share, 1 = perfect); 0 when the
	// level ran serial or on an immutable context. SchedBound is the analytic aligned lower
	// bound max(1, (MaxBucketLen+1)·p/(Edges+Vertices)) — a whole-bucket
	// schedule cannot beat it, so imbalance far above it flags a scheduling
	// bug rather than graph skew.
	SchedImbalance float64 `json:"sched_imbalance,omitempty"`
	SchedBound     float64 `json:"sched_bound,omitempty"`
	// Dissolved and PrevCommunities describe an incremental re-detection's
	// seed (StageIncremental rows only): how many of the previous run's
	// PrevCommunities communities were incident to the delta batch and got
	// dissolved back to singleton vertices.
	Dissolved       int64 `json:"dissolved,omitempty"`
	PrevCommunities int64 `json:"prev_communities,omitempty"`
	// Shard and CutEdges describe sharded detection rows. On a StageShard
	// row, Shard is the shard index, Vertices/Edges its extracted subgraph,
	// OutVertices its local community count, and CutEdges the boundary edges
	// it recorded (each cut edge is counted by exactly one of its two
	// shards); SchedImbalance carries the shard's edge-load share over the
	// even share. On the StageStitch row CutEdges is the total across
	// shards and Vertices the quotient graph the stitch ran on.
	Shard    int   `json:"shard,omitempty"`
	CutEdges int64 `json:"cut_edges,omitempty"`
}

// Stage labels for LevelStats.Stage. The empty string is equivalent to
// StageMatch: matching-only runs predate the stage column and their rows
// stay byte-identical in JSON (omitempty).
const (
	StageMatch   = "match"
	StagePLP     = "plp"
	StageCoarsen = "coarsen"
	// StageIncremental is the seed contraction of an incremental
	// re-detection: the previous partition with dirty communities dissolved,
	// folded into the starting community graph.
	StageIncremental = "incremental"
	// StageShard is one shard's local detection in a sharded run: the
	// subgraph it extracted, the communities it produced, and the boundary
	// edges it deferred to the stitch. Shard rows carry no global metric
	// (shard-local modularity is against shard-local weight, not
	// comparable), so like PLP rows they neither produce nor anchor a
	// metric delta.
	StageShard = "shard"
	// StageStitch is the cross-shard agglomeration over the quotient graph
	// of per-shard communities and cut edges — the row whose Metric is the
	// run's final global modularity.
	StageStitch = "stitch"
)

// StageOf normalizes a row's stage: empty means StageMatch.
func StageOf(st LevelStats) string {
	if st.Stage == "" {
		return StageMatch
	}
	return st.Stage
}

// Warning codes.
const (
	// WarnMetricDecrease: the metric went down between levels. Greedy
	// merging over positive scores should be monotone; a decrease means the
	// scorer and the metric disagree or refinement regressed.
	WarnMetricDecrease = "metric-decrease"
	// WarnMatchingStall: a matching round made no progress (the worklist
	// did not shrink) or the round count blew past the geometric-drain
	// expectation.
	WarnMatchingStall = "matching-stall"
	// WarnImbalance: the built schedule's imbalance exceeded its analytic
	// bound by more than imbalanceSlack.
	WarnImbalance = "imbalance"
	// WarnDissolveStorm: an incremental re-detection dissolved more than a
	// quarter of the previous partition's communities. At that churn the
	// seeded run re-does most of the agglomeration and a from-scratch Detect
	// is likely cheaper and better.
	WarnDissolveStorm = "dissolve-storm"
	// WarnDrift: the run doctor found a metric z-scored past its baseline
	// (kernel seconds, latency quantiles, convergence shape, allocations).
	// Emitted post-run via AddWarning, not by Record.
	WarnDrift = "doctor-drift"
)

// dissolveStormDen is the dissolved-community fraction denominator for
// WarnDissolveStorm: dissolving more than 1/dissolveStormDen (25%) of the
// previous communities flags the storm.
const dissolveStormDen = 4

// stallPassCap flags a matching that needed more rounds than the geometric
// drain the locally-dominant discipline predicts (a handful on real graphs).
const stallPassCap = 64

// imbalanceSlack is the multiplicative headroom over the analytic bound
// before a schedule is flagged; the bound is exact for the worst bucket, so
// 1.5x past it is a genuine blow-past, not rounding.
const imbalanceSlack = 1.5

// Warning is one structured anomaly flagged while recording a level.
type Warning struct {
	Level  int    `json:"level"`
	Code   string `json:"code"`
	Detail string `json:"detail"`
}

// Ledger accumulates one run's per-level convergence rows. The zero value
// is ready; NewLedger is the conventional constructor. A nil *Ledger is the
// disabled ledger — every method no-ops.
type Ledger struct {
	mu       sync.Mutex
	levels   []LevelStats
	warnings []Warning
	// logger, when set, receives every warning as it is flagged — the
	// real-time mirror of the post-hoc Warnings list. Warnings also land in
	// the process flight recorder unconditionally (the ring is free).
	logger *slog.Logger
	// profiler, when set, gets a rate-limited asynchronous CPU-window
	// trigger on every warning — the "capture evidence while the anomaly is
	// still running" half of the doctor's triggered profiling.
	profiler *Profiler
}

// SetProfiler triggers a rate-limited background CPU capture on future
// warnings (a stalled matching or metric decrease profiles itself while the
// run is still degenerating). Pass nil to stop.
func (l *Ledger) SetProfiler(p *Profiler) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.profiler = p
	l.mu.Unlock()
}

// SetLogger mirrors future warnings into log as they are recorded (a stalled
// matching or a metric decrease becomes visible mid-run instead of in the
// final report). Pass nil to stop mirroring.
func (l *Ledger) SetLogger(log *slog.Logger) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.logger = log
	l.mu.Unlock()
}

// NewLedger returns an enabled empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Enabled reports whether l records anything; false for the nil ledger.
func (l *Ledger) Enabled() bool { return l != nil }

// Reset clears all recorded rows, keeping capacity, for reuse across runs.
func (l *Ledger) Reset() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.levels = l.levels[:0]
	l.warnings = l.warnings[:0]
	l.mu.Unlock()
}

// Record appends one level row. It derives MergedVertices, MergeFraction,
// HubShare, and MetricDelta from the raw fields, then checks the row for
// anomalies and appends structured Warnings. Rows must arrive in level
// order from the engine goroutine; concurrent Export/snapshot is safe.
func (l *Ledger) Record(st LevelStats) {
	if l == nil {
		return
	}
	st.MergedVertices = st.Vertices - st.OutVertices
	if st.Vertices > 0 {
		st.MergeFraction = float64(st.MergedVertices) / float64(st.Vertices)
	}
	if st.Edges > 0 {
		st.HubShare = float64(st.MaxBucketLen) / float64(st.Edges)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// The anomaly checks are stage-guarded. PLP sweep rows carry no metric,
	// so they neither produce nor anchor a metric delta — and shard rows
	// likewise (their modularity would be against shard-local weight); the
	// coarsen row's Drain is the PLP active-vertex curve, which
	// legitimately plateaus (a wave of label changes re-activates whole
	// neighborhoods), so the geometric-drain expectation applies only to
	// matching rows.
	metricless := func(stage string) bool { return stage == StagePLP || stage == StageShard }
	if n := len(l.levels); n > 0 && !metricless(StageOf(st)) && !metricless(StageOf(l.levels[n-1])) {
		st.MetricDelta = st.Metric - l.levels[n-1].Metric
		if st.MetricDelta < -1e-12 {
			l.warn(st.Level, WarnMetricDecrease,
				fmt.Sprintf("metric fell %.6f -> %.6f", l.levels[n-1].Metric, st.Metric))
		}
	}
	if StageOf(st) == StageMatch {
		for i := 0; i+1 < len(st.Drain); i++ {
			if st.Drain[i+1] >= st.Drain[i] {
				l.warn(st.Level, WarnMatchingStall,
					fmt.Sprintf("pass %d made no progress: worklist %d -> %d",
						i, st.Drain[i], st.Drain[i+1]))
				break
			}
		}
		if st.MatchPasses > stallPassCap {
			l.warn(st.Level, WarnMatchingStall,
				fmt.Sprintf("%d matching passes (expected geometric drain)", st.MatchPasses))
		}
	}
	if StageOf(st) == StageIncremental && st.PrevCommunities > 0 &&
		st.Dissolved*dissolveStormDen > st.PrevCommunities {
		l.warn(st.Level, WarnDissolveStorm,
			fmt.Sprintf("dissolved %d of %d previous communities (> 1/%d): from-scratch detection is likely cheaper",
				st.Dissolved, st.PrevCommunities, dissolveStormDen))
	}
	if st.SchedBound > 0 && st.SchedImbalance > st.SchedBound*imbalanceSlack {
		l.warn(st.Level, WarnImbalance,
			fmt.Sprintf("schedule imbalance %.2f exceeds analytic bound %.2f",
				st.SchedImbalance, st.SchedBound))
	}
	l.levels = append(l.levels, st)
}

// warn appends a warning, mirrors it into the flight ring, and — when a
// logger is attached — emits it as a real-time log record. Callers hold l.mu.
func (l *Ledger) warn(level int, code, detail string) {
	l.warnings = append(l.warnings, Warning{Level: level, Code: code, Detail: detail})
	Flight().Record(FlightWarning, "ledger", code, detail, 0)
	l.profiler.TriggerCPU(code)
	if l.logger != nil {
		l.logger.Warn("convergence anomaly", "code", code, "level", level, "detail", detail)
	}
}

// AddWarning appends one structured warning from outside the Record path —
// the run doctor's drift findings arrive this way after the run finishes.
// level is the row index the warning anchors to (-1 for run-scoped). It
// mirrors into the flight ring and the attached logger like every other
// warning. Nil-safe.
func (l *Ledger) AddWarning(level int, code, detail string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.warn(level, code, detail)
	l.mu.Unlock()
}

// Levels returns a copy of the recorded rows, in level order.
func (l *Ledger) Levels() []LevelStats {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]LevelStats(nil), l.levels...)
}

// Warnings returns a copy of the flagged anomalies.
func (l *Ledger) Warnings() []Warning {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Warning(nil), l.warnings...)
}

// NumLevels reports the number of recorded rows.
func (l *Ledger) NumLevels() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.levels)
}

// LedgerProfile is the ledger's structured export, embedded in report JSON
// and served in the live endpoint's /debug/flight dump.
type LedgerProfile struct {
	Levels   []LevelStats `json:"levels,omitempty"`
	Warnings []Warning    `json:"warnings,omitempty"`
}

// Export snapshots the ledger. Safe to call concurrently with a run; nil
// for the disabled ledger.
func (l *Ledger) Export() *LedgerProfile {
	if l == nil {
		return nil
	}
	return &LedgerProfile{Levels: l.Levels(), Warnings: l.Warnings()}
}

// SizeHistogram folds community sizes into a log2 histogram: bin b counts
// communities whose size has bit-length b (bin 1 = size 1, bin 2 = 2–3, bin
// 3 = 4–7, ...). Trailing empty bins are trimmed; zero-size slots (absent
// communities in a sparse roll-up) are skipped.
func SizeHistogram(sizes []int64) []int64 {
	var hist [histBins]int64
	top := 0
	for _, s := range sizes {
		if s <= 0 {
			continue
		}
		b := bits.Len64(uint64(s))
		if b >= histBins {
			b = histBins - 1
		}
		hist[b]++
		if b > top {
			top = b
		}
	}
	if top == 0 {
		return nil
	}
	return append([]int64(nil), hist[:top+1]...)
}
