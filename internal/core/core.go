// Package core implements the paper's parallel agglomerative community
// detection engine (§III). Starting from one community per vertex, it
// repeats three parallel primitives until a termination criterion holds:
//
//  1. score every community-graph edge by the metric change a merge of its
//     endpoints would cause, exiting at a local maximum if no score is
//     positive;
//  2. compute a greedy approximately-maximum-weight maximal matching over
//     the positive scores;
//  3. contract matched community pairs into a new community graph.
//
// The engine is agnostic to the scoring metric and to the matching and
// contraction kernels; Options selects among the implementations in the
// scoring, matching, and contract packages, which makes the paper's
// old-vs-new ablations one-flag experiments.
package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/buf"
	"repro/internal/contract"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/plp"
	"repro/internal/refine"
	"repro/internal/scoring"
)

// Engine selects the detection pipeline. The matching agglomeration pays
// its full per-level cost while the graph is still large; Staudt &
// Meyerhenke's PLP prelabeling collapses most of it in a few near-linear
// sweeps, and their EPP ensemble scheme runs the expensive algorithm only on
// the coarsened remainder. EngineEnsemble is that scheme with the matching
// agglomeration as the final algorithm.
type Engine int

const (
	// EngineMatching is the paper's matching-based agglomeration (default).
	EngineMatching Engine = iota
	// EnginePLP is pure parallel label propagation: prelabel, contract once
	// by label, done. The fastest engine and the weakest partition.
	EnginePLP
	// EngineEnsemble is the EPP pipeline: PLP prelabels, one label
	// contraction coarsens, then the matching agglomeration runs on the
	// contracted graph.
	EngineEnsemble
)

// DefaultEnsembleSweeps is EngineEnsemble's prelabel sweep bound when
// Options.PLPMaxSweeps is 0. See the PLPMaxSweeps comment: the ensemble wants
// a fine prelabel, not the propagation fixpoint.
const DefaultEnsembleSweeps = 4

// String returns the engine's name for logs, flags, and benchmark labels.
func (e Engine) String() string {
	switch e {
	case EngineMatching:
		return "matching"
	case EnginePLP:
		return "plp"
	case EngineEnsemble:
		return "ensemble"
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// ParseEngine maps an engine name (the String forms) back to its value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "matching":
		return EngineMatching, nil
	case "plp":
		return EnginePLP, nil
	case "ensemble":
		return EngineEnsemble, nil
	}
	return 0, fmt.Errorf("core: unknown engine %q (want matching, plp, or ensemble)", s)
}

// MatchKernel selects the matching implementation (§IV-B).
type MatchKernel int

const (
	// MatchWorklist is the paper's improved unmatched-vertex-list matching.
	MatchWorklist MatchKernel = iota
	// MatchEdgeSweep is the 2011 whole-edge-array matching (ablation).
	MatchEdgeSweep
)

// String returns the kernel's name for logs and benchmark labels.
func (k MatchKernel) String() string {
	switch k {
	case MatchWorklist:
		return "worklist"
	case MatchEdgeSweep:
		return "edgesweep"
	}
	return fmt.Sprintf("MatchKernel(%d)", int(k))
}

// ContractKernel selects the contraction implementation (§IV-C).
type ContractKernel int

const (
	// ContractBucket is the paper's bucket-sort contraction, its buckets
	// laid out back to back by a prefix sum.
	ContractBucket ContractKernel = iota
	// ContractListChase is the 2011 hashed-linked-list contraction
	// (ablation).
	ContractListChase
)

// String returns the kernel's name for logs and benchmark labels.
func (k ContractKernel) String() string {
	switch k {
	case ContractBucket:
		return "bucket"
	case ContractListChase:
		return "listchase"
	}
	return fmt.Sprintf("ContractKernel(%d)", int(k))
}

// Options configures a detection run. The zero value asks for modularity
// maximization with the paper's improved kernels on all available threads,
// running to a local maximum.
type Options struct {
	// Threads is the worker count; <= 0 selects GOMAXPROCS.
	Threads int
	// Scorer is the edge-scoring metric; nil selects scoring.Modularity.
	// Its Edge must be pure, deterministic and safe for concurrent use: the
	// scoring sweep calls it from every worker, once per edge, unless it is
	// one of the builtin metrics, which are scored by inline loops.
	Scorer scoring.Scorer
	// Matching and Contraction select the kernels.
	Matching    MatchKernel
	Contraction ContractKernel
	// Engine selects the detection pipeline: the matching agglomeration
	// (default), pure label propagation, or the PLP-coarsened ensemble.
	Engine Engine
	// PLPMaxSweeps bounds the label-propagation sweeps of EnginePLP and
	// EngineEnsemble; 0 selects the engine default — plp.DefaultMaxSweeps
	// (effectively the fixpoint) for EnginePLP, DefaultEnsembleSweeps for
	// EngineEnsemble. The ensemble deliberately stops early: on graphs with
	// weak community structure synchronous propagation floods into a few
	// giant labels if left to converge, and a prelabel coarser than the
	// community scale destroys the agglomeration's headroom (measured on the
	// R-MAT bench graph: 4 sweeps keep modularity at or above the matching
	// engine's, the fixpoint collapses it to ~0). EngineMatching ignores it.
	PLPMaxSweeps int
	// MinCoverage stops the run once the fraction of input edge weight
	// inside communities reaches this value; 0 disables. The paper's §V
	// experiments use 0.5, "following the spirit of the 10th DIMACS
	// Implementation Challenge rules".
	MinCoverage float64
	// MaxPhases caps the number of contraction phases; 0 means unlimited.
	MaxPhases int
	// MinCommunities stops the run rather than contract below this many
	// communities; 0 disables. Real applications "impose additional
	// constraints like a minimum number of communities" (§III).
	MinCommunities int64
	// MaxCommunitySize forbids merges that would create a community with
	// more than this many original vertices; 0 disables. The paper names
	// "maximum community size" as the other constraint real applications
	// impose (§III); tracking the vertex count per community is the
	// "straight-forward" extension the paper describes.
	MaxCommunitySize int64
	// RefineEveryPhase runs a vertex-move refinement pass over the original
	// graph after every contraction and rebuilds the community graph from
	// the refined partition — the paper's future-work direction of
	// "incorporating refinement into our parallel algorithm" (§II). Slower
	// per phase, substantially better modularity.
	RefineEveryPhase bool
	// DiscardLevels leaves Result.Levels empty. The per-phase old→new maps
	// are the one per-phase output that must otherwise be freshly
	// allocated; callers that only want the final partition set this to
	// keep the scratch arena's steady state allocation-free.
	DiscardLevels bool
	// Validate runs full graph and matching invariant checks every phase.
	// Expensive; for tests and debugging.
	Validate bool
	// Recorder receives kernel-level observability data: per-phase and
	// per-kernel spans, matching round and claim-conflict counters, the
	// contraction bucket-occupancy histogram, per-region worker imbalance,
	// and pprof labels segmenting CPU profiles by kernel. nil (the default)
	// disables recording; the disabled path costs only predictable branches
	// and adds no allocations. A Recorder must not be shared by concurrent
	// runs.
	Recorder *obs.Recorder
	// Ledger receives the per-level convergence rows: merge fractions,
	// matching rounds and worklist drain curves, the metric trajectory,
	// community-size histograms, hub share, and the per-level schedule
	// imbalance against its analytic bound — with anomalies flagged as
	// structured warnings. Rows are recorded before any RefineEveryPhase
	// rebuild, so with refinement on the summed merged-vertex counts may
	// differ from n − NumCommunities. nil (the default) disables the ledger
	// at the same zero cost as a nil Recorder; the two are independent. A
	// Ledger must not be shared by concurrent runs.
	Ledger *obs.Ledger
}

// Termination labels why a run stopped.
type Termination string

const (
	// TermLocalMax: no edge had a positive score.
	TermLocalMax Termination = "local-maximum"
	// TermCoverage: MinCoverage was reached.
	TermCoverage Termination = "coverage"
	// TermMaxPhases: MaxPhases contractions were performed.
	TermMaxPhases Termination = "max-phases"
	// TermMinCommunities: another contraction would drop below
	// MinCommunities.
	TermMinCommunities Termination = "min-communities"
	// TermCanceled: the context was cancelled mid-run. The Result still
	// carries the partial hierarchy built so far, alongside a non-nil
	// wrapped ctx.Err().
	TermCanceled Termination = "canceled"
	// TermPLPConverged: EnginePLP finished its label-propagation sweeps
	// (fixpoint, active-fraction threshold, or sweep cap) and contracted.
	TermPLPConverged Termination = "plp-converged"
)

// PhaseStats records one iteration of the inner loop. Vertices/Edges/
// Coverage/Modularity describe the community graph the phase started from;
// the timings cover the three primitives run on it. On a seeded incremental
// run phase 0 is the seed stage: Vertices/Edges describe the input,
// Coverage/Modularity the seed partition, and ContractTime covers the whole
// stage — the sweep that measures the seed partition when the stop rule can
// fire on it, and the seed contraction whenever one runs, including when
// the first matching level runs it — so layer splits keep attributing the
// stage to contraction.
type PhaseStats struct {
	Phase        int
	Vertices     int64
	Edges        int64
	Coverage     float64
	Modularity   float64
	MatchedPairs int64
	MatchPasses  int
	MatchWeight  float64
	ScoreTime    time.Duration
	MatchTime    time.Duration
	ContractTime time.Duration
	MaxBucketLen int64
}

// Result of a detection run.
type Result struct {
	// CommunityOf maps every input vertex to its community in [0,
	// NumCommunities).
	CommunityOf    []int64
	NumCommunities int64
	// Levels holds the per-phase old→new community maps, outermost first;
	// composing them yields CommunityOf (unless RefineEveryPhase moved
	// vertices between communities, in which case CommunityOf alone is
	// authoritative). Useful for hierarchy analysis.
	Levels [][]int64
	// Stats has one entry per executed phase.
	Stats []PhaseStats
	// Sizes[c] is the number of original vertices in community c.
	Sizes []int64
	// FinalCoverage and FinalModularity describe the final partition.
	FinalCoverage   float64
	FinalModularity float64
	// Termination tells why the run stopped, Total how long it took.
	Termination Termination
	Total       time.Duration
}

// DetectContext runs the agglomerative algorithm on g under a cancellation
// context, out of a temporary scratch arena: after the first phase the loop
// reuses every working buffer. The input graph is treated as read-only. The
// engine checks ctx at every phase and kernel boundary, and a cancelled run
// stops at the next check with Termination TermCanceled, a Result holding the
// partial hierarchy built so far, and a non-nil error wrapping ctx.Err(). It
// acquires a pooled execution context (worker team included) for the run and
// releases it on return, so repeated detections park and reuse one team
// instead of spawning goroutines per loop.
func DetectContext(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	ec := exec.Acquire(ctx, opt.Threads, opt.Recorder)
	defer ec.Release()
	return DetectExec(ec, g, opt, nil)
}

// DetectExec is DetectContext on a caller-owned execution context and arena:
// ec (its context, recorder, and worker team) overrides Options.Threads and
// Options.Recorder entirely, and repeated calls through one s (the harness's
// thread sweeps, service-style repeated queries) skip even the first-phase
// allocations once the arena has grown to the workload. A nil s runs on a new
// arena. The returned Result never aliases arena memory, and a cancelled run
// leaves the arena reusable. s must not be shared by concurrent runs.
func DetectExec(ec *exec.Ctx, g *graph.Graph, opt Options, s *Scratch) (*Result, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if err := validateOptions(opt); err != nil {
		return nil, err
	}
	return detect(ec, g, opt, s.orNew(), nil)
}

func validateOptions(opt Options) error {
	if opt.MinCoverage < 0 || opt.MinCoverage > 1 {
		return fmt.Errorf("core: MinCoverage %v outside [0,1]", opt.MinCoverage)
	}
	if opt.MaxPhases < 0 {
		return fmt.Errorf("core: negative MaxPhases %d", opt.MaxPhases)
	}
	if opt.MinCommunities < 0 {
		return fmt.Errorf("core: negative MinCommunities %d", opt.MinCommunities)
	}
	if opt.MaxCommunitySize < 0 {
		return fmt.Errorf("core: negative MaxCommunitySize %d", opt.MaxCommunitySize)
	}
	if opt.Engine < EngineMatching || opt.Engine > EngineEnsemble {
		return fmt.Errorf("core: unknown engine %d", int(opt.Engine))
	}
	if opt.PLPMaxSweeps < 0 {
		return fmt.Errorf("core: negative PLPMaxSweeps %d", opt.PLPMaxSweeps)
	}
	if _, err := matchFunc(opt.Matching); err != nil {
		return err
	}
	if _, err := contractFunc(opt.Contraction); err != nil {
		return err
	}
	return nil
}

// detect is the single inner engine. A non-nil seed (incremental
// re-detection) replaces the identity starting partition: the run opens on
// the seed partition of g and the matching loop continues from its
// community graph. Seeded runs use the matching engine only (enforced by
// DetectIncrementalWithContext). Every working buffer comes from the arena s.
func detect(ec *exec.Ctx, g *graph.Graph, opt Options, s *Scratch, seed *seedPartition) (*Result, error) {
	scorer := opt.Scorer
	if scorer == nil {
		scorer = scoring.Modularity{}
	}
	matchFn, _ := matchFunc(opt.Matching)
	contractFn, _ := contractFunc(opt.Contraction)
	// The level schedule: detect installs a partition on ec at the top of
	// every phase and must not leave it behind for the next user of the
	// context.
	defer ec.SetPartition(nil)
	levelPart := &s.part
	// p is the worker count for the helpers outside the exec-threaded layers
	// (graph degree/weight sweeps); single-assignment so closures below don't
	// heap-box it. rec likewise: a nil rec makes every instrumentation call a
	// predictable-branch no-op.
	p := ec.Threads()
	rec := ec.Recorder()
	// One run = one set of ledger rows. Reset (rather than requiring a fresh
	// ledger) keeps a pointer published to the live metrics endpoint valid
	// across bench iterations.
	opt.Ledger.Reset()
	s.final = nil
	// The run's heap footprint brackets the whole detection: two ReadMemStats
	// stop-the-worlds per run, only when recording is on — never per kernel.
	rec.BeginAllocs()

	start := time.Now()
	n := g.NumVertices()
	comm := make([]int64, n)
	if seed != nil {
		// The starting partition is the seed assignment, not singletons.
		ec.CopyInt64(comm, seed.comm)
	} else if ec.Serial(int(n)) {
		for i := range comm {
			comm[i] = int64(i)
		}
	} else {
		ec.For(int(n), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				comm[i] = int64(i)
			}
		})
	}
	// A seeded run reads its total weight off the seed stage (its sweep or
	// its community graph) instead of a pass over the input.
	var totW int64
	if seed == nil {
		totW = g.TotalWeight(p)
	}
	// sizes is the working per-community vertex count. It lives in the
	// arena's double-buffer (the roll-up below ping-pongs between the halves)
	// and is copied out at the end. The weighted degrees roll through every
	// contraction the same way, as d_c = Σ d_member instead of being
	// recomputed from the edges.
	sizesIdx := 0
	s.sizes[0] = buf.Grow(s.sizes[0], int(n))
	sizes := s.sizes[0]
	// deg of the current community graph when a roll-up (or a stage) has
	// already produced it, nil when the next phase must compute it; degIdx
	// is the degree ping-pong half it lives in.
	var nextDeg []int64
	degIdx := 0
	// initSizes aliases sizes for the closure below: sizes is reassigned
	// every phase, and a closure capturing a reassigned variable heap-boxes
	// it (same reason finish takes cg and sizes as parameters).
	initSizes := sizes
	if ec.Serial(int(n)) {
		for i := range initSizes {
			initSizes[i] = 1
		}
	} else {
		ec.For(int(n), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				initSizes[i] = 1
			}
		})
	}

	res := &Result{CommunityOf: comm, Stats: make([]PhaseStats, 0, 48)}
	cg := g
	// The seed partition's community count, coverage and modularity, set by
	// the seed stage below. finish reports them when the run ends on the
	// seed before its community graph was built (cg nil).
	var seedK int64
	var seedCov, seedMod float64
	// done closes the run on a final partition of k communities whose
	// coverage and modularity are already known; finish reads them off the
	// final community graph cg (deg, when non-nil, being cg's degrees).
	done := func(term Termination, k int64, cov, mod float64, sizes []int64) (*Result, error) {
		rec.ClearLabels()
		// The matching row store is edge-sized; an arena kept between runs
		// (incremental serving, harness sweeps) should not pin it.
		s.match.ReleaseRows()
		res.Termination = term
		res.NumCommunities = k
		res.Sizes = append([]int64(nil), sizes...)
		res.FinalCoverage = cov
		res.FinalModularity = mod
		res.Total = time.Since(start)
		rec.ObserveLatency(obs.KernelDetect, res.Total.Nanoseconds())
		rec.EndAllocs()
		return res, nil
	}
	// finish leaves the final community graph in the arena. A seeded run
	// that completes also keeps its final partition's community degrees and
	// intra weights in the arena's carry for the next batch.
	finish := func(term Termination, deg []int64, cg *graph.Graph, sizes []int64) (*Result, error) {
		s.final = cg
		if cg == nil {
			// Only a seeded run ends before it has a graph, with the seed
			// stage's measure in deg and seed.intra.
			if term != TermCanceled {
				s.carry.keep(ec, deg, seed.intra)
			}
			return done(term, seedK, seedCov, seedMod, sizes)
		}
		if deg == nil {
			// Half 0: nothing else reads the degree buffers once the run ends.
			deg = degreesOf(ec, cg, s, 0)
		}
		if seed != nil && term != TermCanceled {
			s.carry.keep(ec, deg, cg.Self)
		}
		cov := coverage(ec, cg, totW)
		return done(term, cg.NumVertices(), cov, modularity(ec, cov, deg, totW), sizes)
	}

	// Engine stage 0 (EnginePLP/EngineEnsemble): PLP prelabeling followed by
	// one label contraction — the EPP coarsening that shrinks the graph
	// before the per-level-expensive matching agglomeration below runs.
	// The stage consumes phase 0; the matching loop then continues from
	// phase 1 on the contracted graph.
	phaseStart := 0
	if opt.Engine != EngineMatching {
		if err := ec.Err(); err != nil {
			res, _ := finish(TermCanceled, nil, cg, sizes)
			return res, fmt.Errorf("core: canceled before prelabeling: %w", err)
		}
		pSpan := rec.Begin(obs.KernelPLP)
		sweeps := opt.PLPMaxSweeps
		if sweeps == 0 && opt.Engine == EngineEnsemble {
			sweeps = DefaultEnsembleSweeps
		}
		pres := plp.Propagate(ec, g, plp.Options{MaxSweeps: sweeps}, &s.plp)
		plpTime := pSpan.EndArgs("sweeps", int64(pres.Sweeps), "vertices", n)
		// The entry partition (identity) for the stats row: its coverage is
		// the input's self-loop fraction and its modularity needs the input
		// degrees.
		deg0 := degreesOf(ec, g, s, degIdx)
		cov0 := coverage(ec, g, totW)
		mod0 := modularity(ec, cov0, deg0, totW)
		if opt.Ledger.Enabled() {
			// One row per sweep: the active-vertex drain curve, sweep by
			// sweep. Sweep rows carry no metric (evaluating modularity per
			// sweep would cost another full pass each); the coarsen row
			// below anchors the metric trajectory instead.
			for i := 0; i < pres.Sweeps; i++ {
				opt.Ledger.Record(obs.LevelStats{
					Stage:       obs.StagePLP,
					Level:       i,
					Vertices:    n,
					Edges:       g.NumEdges(),
					OutVertices: n,
					OutEdges:    g.NumEdges(),
					Active:      pres.Active[i],
					Changed:     pres.Changed[i],
				})
			}
		}

		cSpan := rec.Begin(obs.KernelContract)
		var mapBuf []int64
		if opt.DiscardLevels {
			mapBuf = s.mapping
		}
		// Buffer 0: the matching loop ping-pongs on phase&1 and starts at
		// phase 1 for the ensemble, so its first contraction reads this
		// graph out of buffer 0 while writing buffer 1.
		ng, mapping, k := contract.ByLabels(ec, g, pres.Labels, &s.contract, s.graphBuf(0), mapBuf)
		if opt.DiscardLevels {
			s.mapping = mapping
		}
		contractTime := cSpan.EndArgs("vertices", k, "edges", ng.NumEdges())
		if opt.Validate {
			if err := ng.Validate(); err != nil {
				return nil, fmt.Errorf("core: prelabel contraction: %w", err)
			}
			if ng.TotalWeight(p) != totW {
				return nil, fmt.Errorf("core: prelabel contraction changed total weight %d -> %d",
					totW, ng.TotalWeight(p))
			}
		}
		// comm is still the identity here, so composition is a copy of the
		// mapping; the general form keeps the parallel path uniform.
		if ec.Serial(int(n)) {
			for i := range comm {
				comm[i] = mapping[comm[i]]
			}
		} else {
			ec.For(int(n), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					comm[i] = mapping[comm[i]]
				}
			})
		}
		sizes, sizesIdx = rollup(ec, s, &s.sizes, sizes, sizesIdx, mapping, int(k))
		nextDeg, degIdx = rollup(ec, s, &s.degs, deg0, degIdx, mapping, int(k))
		res.Stats = append(res.Stats, PhaseStats{
			Phase:        0,
			Vertices:     n,
			Edges:        g.NumEdges(),
			Coverage:     cov0,
			Modularity:   mod0,
			MatchedPairs: n - k, // merged vertices: PLP merges groups, not pairs
			MatchPasses:  pres.Sweeps,
			MatchTime:    plpTime,
			ContractTime: contractTime,
			MaxBucketLen: g.MaxBucketLen(),
		})
		if opt.Ledger.Enabled() {
			opt.Ledger.Record(obs.LevelStats{
				Stage:       obs.StageCoarsen,
				Level:       0,
				Vertices:    n,
				Edges:       g.NumEdges(),
				OutVertices: k,
				OutEdges:    ng.NumEdges(),
				Metric:      mod0,
				Coverage:    cov0,
				MatchPasses: pres.Sweeps,
				// The PLP active curve is the stage's drain; copy — it
				// aliases scratch.
				Drain:        append([]int64(nil), pres.Active...),
				SizeHist:     obs.SizeHistogram(sizes),
				MaxBucketLen: g.MaxBucketLen(),
			})
		}
		if !opt.DiscardLevels {
			// mapping is freshly allocated whenever levels are kept (mapBuf
			// stayed nil), so the Result never aliases arena memory.
			res.Levels = append(res.Levels, mapping)
		}
		cg = ng
		if opt.Engine == EnginePLP {
			// A cancelled propagation stops between sweeps with valid labels,
			// so the level above is a true partial result.
			if err := ec.Err(); err != nil {
				res, _ := finish(TermCanceled, nextDeg, cg, sizes)
				return res, fmt.Errorf("core: canceled during prelabeling: %w", err)
			}
			return finish(TermPLPConverged, nextDeg, cg, sizes)
		}
		phaseStart = 1
	}

	// Seed stage (incremental re-detection, mutually exclusive with the
	// engine stage above). The seed partition — the previous run's
	// communities with the batch-dirty ones dissolved to singletons — is
	// phase 0; the loop continues from phase 1 so the ping-pong buffer parity
	// works out. When the loop's stop rule can fire on the seed (MaxPhases 1,
	// or a MinCoverage the seed may already meet), the stage measures the
	// seed partition (its communities' degrees and intra weights, and the
	// total weight) and hands the loop no graph: the loop's stop checks read
	// those figures, and only a level that goes on to run contracts the input
	// by the seed mapping. The measure comes from the previous run's carried
	// figures when the driver found them valid (O(batch + communities)), and
	// from one sweep over the input otherwise. When no stop rule can fire on
	// the seed, the stage contracts at once and measures the seed on its
	// community graph, which is cheaper than the sweep. nextCov carries the
	// seed's coverage into the first level (negative: the level measures its
	// own).
	nextCov := -1.0
	if seed != nil {
		cSpan := rec.Begin(obs.KernelContract)
		var ng *graph.Graph
		if opt.MaxPhases == 1 || opt.MinCoverage > 0 {
			var st seedStats
			if seed.carry != nil {
				st = carriedStats(g, seed, s)
				if opt.Validate {
					warm := seedStats{deg: slices.Clone(st.deg), intra: slices.Clone(st.intra), total: st.total}
					st = seedSweep(ec, g, seed.comm, int(seed.k), s, seed.schedule(ec, g, levelPart))
					if err := sameSeedStats(warm, st); err != nil {
						return nil, fmt.Errorf("core: carried seed measure: %w", err)
					}
				}
			} else {
				st = seedSweep(ec, g, seed.comm, int(seed.k), s, seed.schedule(ec, g, levelPart))
			}
			totW = st.total
			nextDeg = st.deg // degree half 0, which degIdx names
			seed.intra = st.intra
			seedCov = fraction(ec.SumInt64(st.intra), totW)
			seedMod = modularity(ec, seedCov, st.deg, totW)
			if opt.Validate {
				ng = seedGraph(ec, g, seed, s)
				if err := validateSeed(ng, g, st, p); err != nil {
					return nil, fmt.Errorf("core: seed contraction: %w", err)
				}
			}
		} else {
			ng = seedGraph(ec, g, seed, s)
			totW = ng.TotalWeight(p)
			nextDeg = degreesOf(ec, ng, s, degIdx)
			seedCov = coverage(ec, ng, totW)
			seedMod = modularity(ec, seedCov, nextDeg, totW)
			if opt.Validate {
				if err := ng.Validate(); err != nil {
					return nil, fmt.Errorf("core: seed contraction: %w", err)
				}
				if w := g.TotalWeight(p); w != totW {
					return nil, fmt.Errorf("core: seed contraction changed total weight %d -> %d", w, totW)
				}
			}
		}
		seedK = seed.k
		sizes, sizesIdx = rollup(ec, s, &s.sizes, sizes, sizesIdx, seed.comm, int(seed.k))
		var outEdges int64
		if ng != nil {
			outEdges = ng.NumEdges()
		} else {
			// Measure-only: no seed graph was built, so no contract sample;
			// the level that builds it takes one.
			cSpan = cSpan.NoSample()
		}
		contractTime := cSpan.EndArgs("vertices", seed.k, "edges", outEdges)
		maxBucket := g.MaxBucketLen()
		res.Stats = append(res.Stats, PhaseStats{
			Phase:        0,
			Vertices:     n,
			Edges:        g.NumEdges(),
			Coverage:     seedCov,
			Modularity:   seedMod,
			MatchedPairs: n - seed.k, // merged vertices: the kept communities
			ContractTime: contractTime,
			MaxBucketLen: maxBucket,
		})
		if opt.Ledger.Enabled() {
			opt.Ledger.Record(obs.LevelStats{
				Stage:           obs.StageIncremental,
				Level:           0,
				Vertices:        n,
				Edges:           g.NumEdges(),
				OutVertices:     seed.k,
				OutEdges:        outEdges,
				Metric:          seedMod,
				Coverage:        seedCov,
				SizeHist:        obs.SizeHistogram(sizes),
				MaxBucketLen:    maxBucket,
				Dissolved:       seed.dissolved,
				PrevCommunities: seed.prevK,
			})
		}
		if !opt.DiscardLevels {
			// A copy: seed.comm aliases the caller's (or the arena's) buffer.
			level := make([]int64, n)
			ec.CopyInt64(level, seed.comm)
			res.Levels = append(res.Levels, level)
		}
		cg = ng // nil: the first level that runs contracts the seed
		nextCov = seedCov
		phaseStart = 1
	}

	for phase := phaseStart; ; phase++ {
		if err := ec.Err(); err != nil {
			res, _ := finish(TermCanceled, nextDeg, cg, sizes)
			return res, fmt.Errorf("core: canceled at phase %d: %w", phase, err)
		}
		if opt.MaxPhases > 0 && phase >= opt.MaxPhases {
			return finish(TermMaxPhases, nextDeg, cg, sizes)
		}
		cov := nextCov
		if cov < 0 {
			cov = coverage(ec, cg, totW)
		}
		nextCov = -1
		if opt.MinCoverage > 0 && cov >= opt.MinCoverage {
			return finish(TermCoverage, nextDeg, cg, sizes)
		}
		if cg == nil {
			// The seed stage measured the seed without contracting it and
			// the stop rule did not hold: contract now. The time is the seed
			// stage's, so it goes to phase 0.
			cSpan := rec.Begin(obs.KernelContract)
			cg = seedGraph(ec, g, seed, s)
			res.Stats[0].ContractTime += cSpan.EndArgs("vertices", seed.k, "edges", cg.NumEdges())
		}

		phSpan := rec.BeginPhase(phase, cg.NumVertices(), cg.NumEdges())

		// Primitive 0: the level schedule. One prefix sum over the bucket
		// lengths yields the edge-balanced partition that every kernel sweep
		// over cg adopts through Balanced; kernels keep their dynamic (or
		// locally built) fallbacks for serial runs and immutable contexts,
		// where no partition is installed.
		nv := int(cg.NumVertices())
		schedBuilt := false
		if !ec.Serial(nv) {
			if ec.SetPartition(levelPart); ec.Partition() == levelPart {
				ssp := rec.Begin(obs.KernelSchedule)
				ec.BuildBuckets(levelPart, nv, cg.Start, cg.End)
				ssp.EndArgs("workers", int64(levelPart.Workers()), "vertices", int64(nv))
				schedBuilt = true
			}
		} else {
			ec.SetPartition(nil)
		}

		// Primitive 1: score. One sweep fills the scores, masks the merges
		// MaxCommunitySize forbids, and finds whether any allowed merge
		// improves the metric.
		scSpan := rec.Begin(obs.KernelScore)
		// Degrees: rolled up through the previous contraction, or computed
		// from the edges when no mapping produced them (the first level,
		// after a refinement rebuild).
		deg := nextDeg
		if deg == nil {
			deg = degreesOf(ec, cg, s, degIdx)
		} else if opt.Validate {
			if err := sameDegrees(deg, cg.WeightedDegrees(p)); err != nil {
				phSpan.End()
				return nil, fmt.Errorf("core: phase %d: %w", phase, err)
			}
		}
		s.scores = buf.Grow(s.scores, len(cg.V))
		scores := s.scores[:len(cg.V)]
		positive := scoring.Score(ec, scorer, cg, deg, totW, scores, sizes, opt.MaxCommunitySize,
			rec.HotCounter(obs.CtrScoreMasked))
		rec.FoldHot()
		scoreTime := scSpan.EndArgs("edges", cg.NumEdges(), "positive", boolInt64(positive))
		if !positive {
			phSpan.End()
			return finish(TermLocalMax, deg, cg, sizes)
		}
		if err := ec.Err(); err != nil {
			phSpan.End()
			res, _ := finish(TermCanceled, deg, cg, sizes)
			return res, fmt.Errorf("core: canceled at phase %d after scoring: %w", phase, err)
		}
		// The ledger's eligible-edge population. Counted only when the
		// ledger is on (an extra sweep over the score array), after the
		// size-cap mask, so it is exactly what the matching sees.
		var posEdges int64
		if opt.Ledger.Enabled() {
			posEdges = countPositive(ec, cg, scores)
		}

		// Primitive 2: greedy heavy maximal matching.
		mSpan := rec.Begin(obs.KernelMatch)
		mres := matchFn(ec, cg, scores, &s.match)
		matchTime := mSpan.EndArgs("pairs", mres.Pairs, "passes", int64(mres.Passes))
		// Checked first: a cancelled kernel returns the matching of the
		// passes it ran, which need not be maximal and is empty when the
		// first pass was cut.
		if err := ec.Err(); err != nil {
			phSpan.End()
			res, _ := finish(TermCanceled, deg, cg, sizes)
			return res, fmt.Errorf("core: canceled at phase %d after matching: %w", phase, err)
		}
		if opt.Validate {
			if err := matching.Verify(cg, scores, mres.Match); err != nil {
				return nil, fmt.Errorf("core: phase %d: %w", phase, err)
			}
		}
		if mres.Pairs == 0 {
			// Unreachable for a maximal matching over positive edges, but a
			// contraction that merges nothing would loop forever.
			phSpan.End()
			return finish(TermLocalMax, deg, cg, sizes)
		}
		if opt.MinCommunities > 0 && cg.NumVertices()-mres.Pairs < opt.MinCommunities {
			phSpan.End()
			return finish(TermMinCommunities, deg, cg, sizes)
		}

		// Primitive 3: contraction, into the arena's ping-pong destination
		// graph (phase i reads buffer i%2's predecessor and writes i%2).
		cSpan := rec.Begin(obs.KernelContract)
		var mapBuf []int64
		if opt.DiscardLevels {
			mapBuf = s.mapping
		}
		ng, mapping := contractFn(ec, cg, mres.Match, &s.contract, s.graphBuf(phase), mapBuf)
		if opt.DiscardLevels {
			s.mapping = mapping
		}
		contractTime := cSpan.EndArgs("vertices", ng.NumVertices(), "edges", ng.NumEdges())
		if opt.Validate {
			if err := ng.Validate(); err != nil {
				return nil, fmt.Errorf("core: phase %d: %w", phase, err)
			}
			if ng.TotalWeight(p) != totW {
				return nil, fmt.Errorf("core: phase %d: contraction changed total weight %d -> %d",
					phase, totW, ng.TotalWeight(p))
			}
		}
		if ec.Serial(int(n)) {
			for i := range comm {
				comm[i] = mapping[comm[i]]
			}
		} else {
			ec.For(int(n), func(lo, hi int) {
				for i := lo; i < hi; i++ {
					comm[i] = mapping[comm[i]]
				}
			})
		}
		// Track community sizes through the contraction (§III's
		// "straight-forward" extension).
		kNew := int(ng.NumVertices())
		sizes, sizesIdx = rollup(ec, s, &s.sizes, sizes, sizesIdx, mapping, kNew)
		// The roll-up writes the other half, so deg (cg's degrees) stays
		// valid for this level's modularity below.
		nextDeg, degIdx = rollup(ec, s, &s.degs, deg, degIdx, mapping, kNew)

		mod := modularity(ec, cov, deg, totW)
		maxBucket := cg.MaxBucketLen()
		res.Stats = append(res.Stats, PhaseStats{
			Phase:        phase,
			Vertices:     cg.NumVertices(),
			Edges:        cg.NumEdges(),
			Coverage:     cov,
			Modularity:   mod,
			MatchedPairs: mres.Pairs,
			MatchPasses:  mres.Passes,
			MatchWeight:  mres.Weight,
			ScoreTime:    scoreTime,
			MatchTime:    matchTime,
			ContractTime: contractTime,
			MaxBucketLen: maxBucket,
		})
		if opt.Ledger.Enabled() {
			st := obs.LevelStats{
				Stage:         obs.StageMatch,
				Level:         phase,
				Vertices:      cg.NumVertices(),
				Edges:         cg.NumEdges(),
				PositiveEdges: posEdges,
				MatchedPairs:  mres.Pairs,
				OutVertices:   ng.NumVertices(),
				OutEdges:      ng.NumEdges(),
				Metric:        mod,
				Coverage:      cov,
				MatchPasses:   mres.Passes,
				// Drain aliases matching scratch; the ledger row outlives
				// the phase, so copy.
				Drain:        append([]int64(nil), mres.Drain...),
				SizeHist:     obs.SizeHistogram(sizes),
				MaxBucketLen: maxBucket,
			}
			if schedBuilt {
				st.SchedImbalance = levelPart.AlignedImbalance()
				if work := cg.NumEdges() + cg.NumVertices(); work > 0 {
					st.SchedBound = 1
					if lb := float64(maxBucket+1) * float64(levelPart.Workers()) / float64(work); lb > 1 {
						st.SchedBound = lb
					}
				}
			}
			opt.Ledger.Record(st)
		}
		if !opt.DiscardLevels {
			// mapping is freshly allocated whenever levels are kept, so the
			// Result never aliases arena memory.
			res.Levels = append(res.Levels, mapping)
		}
		cg = ng

		if opt.RefineEveryPhase {
			// Future-work integration (§II): let individual vertices migrate
			// between the freshly merged communities on the original graph,
			// then rebuild the community graph from the refined partition.
			rSpan := rec.Begin(obs.KernelRefine)
			rres, err := refine.Refine(ec, g, comm, cg.NumVertices())
			if err != nil {
				rSpan.End()
				phSpan.End()
				return nil, fmt.Errorf("core: phase %d refinement: %w", phase, err)
			}
			if rres.Moves > 0 && rres.ModularityAfter > rres.ModularityBefore {
				copy(comm, rres.CommunityOf)
				cg = contract.ByMapping(ec, g, comm, rres.NumCommunities, nil, nil)
				newSizes := make([]int64, rres.NumCommunities)
				for _, c := range comm {
					newSizes[c]++
				}
				sizes = newSizes
				nextDeg = nil // a rebuilt graph has no mapping from the rolled one
				if opt.Validate {
					if err := cg.Validate(); err != nil {
						rSpan.End()
						phSpan.End()
						return nil, fmt.Errorf("core: phase %d refined graph: %w", phase, err)
					}
				}
			}
			rSpan.EndArgs("moves", rres.Moves, "communities", cg.NumVertices())
		}
		rec.ObserveLatency(obs.KernelLevel, phSpan.End().Nanoseconds())
	}
}

// rollup folds per-community values — vertex counts, weighted degrees —
// through a contraction mapping into kNew sums: new[mapping[c]] += old[c].
// Both are exact under contraction (an edge inside a merged community
// contributes its weight to both member degrees and twice to the merged
// self-loop term of the new degree). The roll-up ping-pongs between pair's
// halves (idx names the half holding vals; the result goes to the other)
// and sums on the team through exec's per-worker stripes (s.rollStripes)
// instead of one atomic add per old community, which serialized on heavily
// merged regions. It returns the new values and their half's index.
func rollup(ec *exec.Ctx, s *Scratch, pair *[2][]int64, vals []int64, idx int, mapping []int64, kNew int) ([]int64, int) {
	other := idx ^ 1
	pair[other] = buf.Grow(pair[other], kNew)
	out := pair[other][:kNew]
	s.rollStripes = ec.Rollup(out, vals, mapping, s.rollStripes)
	return out, other
}

// degreesOf computes g's weighted degrees from its edges, into the arena's
// degree half idx. It runs on the team with rollup's discipline: each worker
// adds both endpoints of its vertex range's edges into its own n-wide stripe
// of s.rollStripes, and one MergeStripes sums the stripes, so no edge takes
// an atomic add. graph.WeightedDegrees stays the reference Options.Validate
// checks against.
func degreesOf(ec *exec.Ctx, g *graph.Graph, s *Scratch, idx int) []int64 {
	n := int(g.NumVertices())
	s.degs[idx] = buf.Grow(s.degs[idx], n)
	d := s.degs[idx]
	if ec.Serial(n) {
		clear(d)
		degreeRange(g, d, 0, n)
		return d
	}
	workers := ec.Workers(n)
	s.rollStripes = buf.Grow(s.rollStripes, workers*n)
	stripes := s.rollStripes[:workers*n]
	ec.ZeroInt64(stripes)
	ec.ForWorker(n, func(w, lo, hi int) {
		degreeRange(g, stripes[w*n:(w+1)*n], lo, hi)
	})
	ec.MergeStripes(stripes, workers, n, d)
	return d
}

// degreeRange adds the degree contributions of vertices [lo, hi) — twice
// their self-loops and both endpoints of every edge in their buckets — into
// the n-wide stripe st.
func degreeRange(g *graph.Graph, st []int64, lo, hi int) {
	for x := lo; x < hi; x++ {
		sum := 2 * g.Self[x]
		for e := g.Start[x]; e < g.End[x]; e++ {
			w := g.W[e]
			sum += w
			st[g.V[e]] += w
		}
		st[x] += sum
	}
}

// seedStats is the seed partition's measure, read off the input graph by
// seedSweep (or off the previous run's carry by carriedStats) without
// building the seed community graph.
type seedStats struct {
	deg   []int64 // weighted degree of each seed community
	intra []int64 // each seed community's Self plus the W of edges inside it
	total int64   // Σ W + Σ Self over the input: the run's totW
}

// seedSweep measures the seed partition comm (k communities) of g in one
// pass over its edges. With a schedule pt (nil runs serially on the caller)
// every edge-exact span accumulates into its own (2k+1)-wide stripe of the
// arena's roll-up stripes — k community degrees, k community intra
// weights, then the total — and one MergeStripes sums them into degree half
// 0, so no edge takes an atomic add and the sweep allocates nothing.
func seedSweep(ec *exec.Ctx, g *graph.Graph, comm []int64, k int, s *Scratch, pt *par.Partition) seedStats {
	n := int(g.NumVertices())
	width := 2*k + 1
	s.degs[0] = buf.Grow(s.degs[0], width)
	out := s.degs[0]
	switch {
	case n == 0:
		clear(out)
	case pt == nil:
		clear(out)
		seedSweepRange(g, comm, out, 0, n, g.Start[0], g.End[n-1])
	default:
		spans := pt.Workers()
		s.rollStripes = buf.Grow(s.rollStripes, spans*width)
		stripes := s.rollStripes[:spans*width]
		ec.ZeroInt64(stripes)
		ec.ForSpans("seed/sweep", pt, func(j int, sp par.Span) {
			seedSweepRange(g, comm, stripes[j*width:(j+1)*width], sp.LoV, sp.HiV, sp.LoE, sp.HiE)
		})
		ec.MergeStripes(stripes, spans, width, out)
	}
	return seedStats{deg: out[:k], intra: out[k : 2*k], total: out[2*k]}
}

// seedSweepRange adds the span [lo, hi) of g (clamped to eloFirst/ehiLast
// in its first and last bucket, the Span discipline of contraction's count
// sweep) into the (2k+1)-wide stripe st: community degrees in st[:k],
// community intra weights in st[k:2k], total weight in st[2k]. A vertex's
// self-loop belongs to the span piece that owns its bucket's first edge, so
// a hub bucket split across spans folds it exactly once.
func seedSweepRange(g *graph.Graph, comm []int64, st []int64, lo, hi int, eloFirst, ehiLast int64) {
	k := int64(len(st) / 2)
	var total int64
	for x := lo; x < hi; x++ {
		elo, ehi := g.Start[x], g.End[x]
		if x == lo {
			elo = eloFirst
		}
		if x == hi-1 {
			ehi = ehiLast
		}
		cx := comm[x]
		var sum, in int64 // x's degree share (twice its self-loop plus its edges) and intra share
		if elo == g.Start[x] {
			sw := g.Self[x]
			sum = 2 * sw
			total += sw
			in = sw
		}
		for e := elo; e < ehi; e++ {
			w := g.W[e]
			cv := comm[g.V[e]]
			sum += w
			total += w
			st[cv] += w
			if cv == cx {
				in += w
			}
		}
		st[cx] += sum
		st[k+cx] += in
	}
	st[2*k] += total
}

// carriedStats measures the seed partition from the previous run's carried
// figures instead of the edges: a clean community brings its carried
// degree and intra weight under its new id, a dissolved vertex its merged
// weighted degree and self-loop, and the total is the overlay's. That is
// O(previous communities + dissolved vertices), and the figures are
// seedSweep's exactly (Options.Validate checks them against it).
func carriedStats(g *graph.Graph, seed *seedPartition, s *Scratch) seedStats {
	k := int(seed.k)
	s.degs[0] = buf.Grow(s.degs[0], k)
	s.seedIntra = buf.Grow(s.seedIntra, k)
	deg, intra := s.degs[0][:k], s.seedIntra[:k]
	c := seed.carry
	for pc, r := range seed.remap {
		if r >= 0 {
			deg[r], intra[r] = c.deg[pc], c.intra[pc]
		}
	}
	at := seed.clean
	for _, v := range seed.singles {
		deg[at], intra[at] = seed.vdeg[v], g.Self[v]
		at++
	}
	return seedStats{deg: deg, intra: intra, total: seed.total}
}

// sameSeedStats is Options.Validate's check of the carried seed measure
// against the sweep's.
func sameSeedStats(carried, swept seedStats) error {
	if carried.total != swept.total {
		return fmt.Errorf("total weight %d, the sweep gives %d", carried.total, swept.total)
	}
	if err := sameDegrees(carried.deg, swept.deg); err != nil {
		return err
	}
	for c := range swept.intra {
		if carried.intra[c] != swept.intra[c] {
			return fmt.Errorf("community %d intra weight %d, the sweep gives %d", c, carried.intra[c], swept.intra[c])
		}
	}
	return nil
}

// seedGraph contracts g by the seed partition, into the arena's graph
// buffer 0: the loop starts at phase 1 and its first contraction writes
// s.graphBuf(1), so reading buffer 0 is safe.
func seedGraph(ec *exec.Ctx, g *graph.Graph, seed *seedPartition, s *Scratch) *graph.Graph {
	seed.schedule(ec, g, &s.part)
	return contract.ByMapping(ec, g, seed.comm, seed.k, &s.contract, s.graphBuf(0))
}

// validateSeed is Options.Validate's cross-check of the seed sweep against
// the seed community graph ng contracted from g: ng's invariants, the total
// weight on both graphs, the community degrees, and the community intra
// weights (ng's self-loops).
func validateSeed(ng, g *graph.Graph, st seedStats, p int) error {
	if err := ng.Validate(); err != nil {
		return err
	}
	if w := g.TotalWeight(p); w != st.total {
		return fmt.Errorf("sweep total weight %d, input has %d", st.total, w)
	}
	if w := ng.TotalWeight(p); w != st.total {
		return fmt.Errorf("contraction changed total weight %d -> %d", st.total, w)
	}
	if err := sameDegrees(st.deg, ng.WeightedDegrees(p)); err != nil {
		return err
	}
	for c, w := range ng.Self {
		if w != st.intra[c] {
			return fmt.Errorf("sweep intra weight %d for community %d, seed graph self-loop is %d", st.intra[c], c, w)
		}
	}
	return nil
}

// sameDegrees is Options.Validate's check that rolled-up degrees equal the
// ones recomputed from the community graph's edges.
func sameDegrees(rolled, want []int64) error {
	if len(rolled) != len(want) {
		return fmt.Errorf("rolled-up degrees cover %d communities, graph has %d", len(rolled), len(want))
	}
	for c := range want {
		if rolled[c] != want[c] {
			return fmt.Errorf("rolled-up degree of community %d is %d, edges give %d", c, rolled[c], want[c])
		}
	}
	return nil
}

// boolInt64 converts a flag to a span argument value.
func boolInt64(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func matchFunc(k MatchKernel) (func(*exec.Ctx, *graph.Graph, []float64, *matching.Scratch) matching.Result, error) {
	switch k {
	case MatchWorklist:
		return matching.Worklist, nil
	case MatchEdgeSweep:
		return matching.EdgeSweep, nil
	}
	return nil, fmt.Errorf("core: unknown matching kernel %d", int(k))
}

func contractFunc(k ContractKernel) (func(ec *exec.Ctx, g *graph.Graph, m []int64, s *contract.Scratch, dst *graph.Graph, mapBuf []int64) (*graph.Graph, []int64), error) {
	switch k {
	case ContractBucket:
		return contract.Bucket, nil
	case ContractListChase:
		// The 2011 ablation baseline allocates fresh state by design; its
		// hash-chain storage has no reusable shape (and gets no sub-span
		// instrumentation — it exists to be timed as a whole).
		return func(ec *exec.Ctx, g *graph.Graph, m []int64, _ *contract.Scratch, _ *graph.Graph, _ []int64) (*graph.Graph, []int64) {
			return contract.ListChase(ec, g, m)
		}, nil
	}
	return nil, fmt.Errorf("core: unknown contraction kernel %d", int(k))
}

// coverage is the fraction of total input edge weight lying inside
// communities: Σ Self / m (§III; the DIMACS-style termination measure).
func coverage(ec *exec.Ctx, cg *graph.Graph, totW int64) float64 {
	return fraction(ec.SumInt64(cg.Self), totW)
}

// fraction is intra / totW, 0 for an empty graph.
func fraction(intra, totW int64) float64 {
	if totW <= 0 {
		return 0
	}
	return float64(intra) / float64(totW)
}

// modularity is Newman–Girvan modularity Q = Σ_c self_c/m − Σ_c
// (deg_c/(2m))² of a partition with coverage cov (its Σ_c self_c/m) and
// community degrees deg, m being the total weight totW.
func modularity(ec *exec.Ctx, cov float64, deg []int64, totW int64) float64 {
	if totW <= 0 {
		return 0
	}
	m2 := 2 * float64(totW)
	k := len(deg)
	if ec.Serial(k) {
		// Serial path keeps the per-phase stats computation off the heap.
		var sq float64
		for _, dc := range deg {
			d := float64(dc) / m2
			sq += d * d
		}
		return cov - sq
	}
	partial := make([]float64, ec.Threads())
	used := ec.ForWorker(k, func(w, lo, hi int) {
		var sq float64
		for _, dc := range deg[lo:hi] {
			d := float64(dc) / m2
			sq += d * d
		}
		partial[w] = sq
	})
	var sq float64
	for _, x := range partial[:used] {
		sq += x
	}
	return cov - sq
}

// countPositive counts edges with a positive merge score — the matching's
// eligible population for the convergence ledger. It runs only when the
// ledger is enabled, after the size-cap mask has already forced capped edges
// negative, so the count is exactly what the matching sees. The sweep walks
// the buckets, not the raw score array: the slack holes between buckets hold
// stale scores from earlier phases (the scratch buffer is reused), which the
// kernels never read.
func countPositive(ec *exec.Ctx, g *graph.Graph, scores []float64) int64 {
	n := int(g.NumVertices())
	start, end := g.Start, g.End
	if ec.Serial(n) {
		var c int64
		for x := 0; x < n; x++ {
			for e := start[x]; e < end[x]; e++ {
				if scores[e] > 0 {
					c++
				}
			}
		}
		return c
	}
	partial := make([]int64, ec.Threads())
	used := ec.ForWorker(n, func(w, lo, hi int) {
		var c int64
		for x := lo; x < hi; x++ {
			for e := start[x]; e < end[x]; e++ {
				if scores[e] > 0 {
					c++
				}
			}
		}
		partial[w] = c
	})
	var c int64
	for _, x := range partial[:used] {
		c += x
	}
	return c
}
