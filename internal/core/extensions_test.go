package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/scoring"
)

func TestDetectSizesTracked(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(1000, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectContext(context.Background(), g, Options{Threads: 2, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(res.Sizes)) != res.NumCommunities {
		t.Fatalf("Sizes has %d entries for %d communities", len(res.Sizes), res.NumCommunities)
	}
	want := metrics.Sizes(res.CommunityOf, res.NumCommunities)
	var total int64
	for c := range want {
		if res.Sizes[c] != want[c] {
			t.Fatalf("Sizes[%d] = %d, recomputed %d", c, res.Sizes[c], want[c])
		}
		total += res.Sizes[c]
	}
	if total != g.NumVertices() {
		t.Fatalf("sizes sum to %d, want %d", total, g.NumVertices())
	}
}

func TestDetectMaxCommunitySizeRespected(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(2000, 6))
	if err != nil {
		t.Fatal(err)
	}
	const cap = 16
	res, err := DetectContext(context.Background(), g, Options{Threads: 2, MaxCommunitySize: cap, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	for c, s := range res.Sizes {
		if s > cap {
			t.Fatalf("community %d has %d members, cap %d", c, s, cap)
		}
	}
	// The constraint binds: without it this graph contracts much further.
	free, err := DetectContext(context.Background(), g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities <= free.NumCommunities {
		t.Fatalf("capped run has %d communities, uncapped %d — cap did not bind",
			res.NumCommunities, free.NumCommunities)
	}
}

func TestDetectMaxCommunitySizeOneForbidsAllMerges(t *testing.T) {
	g := gen.Clique(10)
	res, err := DetectContext(context.Background(), g, Options{Threads: 1, MaxCommunitySize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities != 10 || len(res.Stats) != 0 {
		t.Fatalf("cap 1 still merged: %d communities, %d phases", res.NumCommunities, len(res.Stats))
	}
	if res.Termination != TermLocalMax {
		t.Fatalf("termination %q", res.Termination)
	}
}

func TestDetectRejectsNegativeMaxCommunitySize(t *testing.T) {
	if _, err := DetectContext(context.Background(), gen.Ring(4), Options{MaxCommunitySize: -1}); err == nil {
		t.Fatal("accepted negative cap")
	}
}

func TestDetectRefineEveryPhaseImprovesQuality(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(2000, 8))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := DetectContext(context.Background(), g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := DetectContext(context.Background(), g, Options{Threads: 2, RefineEveryPhase: true, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidatePartition(refined.CommunityOf, g.NumVertices(), refined.NumCommunities); err != nil {
		t.Fatal(err)
	}
	// The reported final modularity must match a recomputation on the
	// original graph (the community graph is rebuilt after refinement, so
	// this checks ByMapping's correctness too).
	recomputed := metrics.Modularity(2, g, refined.CommunityOf, refined.NumCommunities)
	if diff := refined.FinalModularity - recomputed; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("FinalModularity %v, recomputed %v", refined.FinalModularity, recomputed)
	}
	if refined.FinalModularity < plain.FinalModularity+0.03 {
		t.Fatalf("refinement gained too little: %v vs %v",
			refined.FinalModularity, plain.FinalModularity)
	}
	// Sizes stay consistent after refinement rebuilds.
	want := metrics.Sizes(refined.CommunityOf, refined.NumCommunities)
	for c := range want {
		if refined.Sizes[c] != want[c] {
			t.Fatalf("Sizes[%d] = %d, recomputed %d", c, refined.Sizes[c], want[c])
		}
	}
}

func TestDetectRefineEveryPhaseWithCoverageStop(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(1500, 12))
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectContext(context.Background(), g, Options{Threads: 2, RefineEveryPhase: true, MinCoverage: 0.5, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalCoverage < 0.5 && res.Termination == TermCoverage {
		t.Fatalf("coverage stop at %v", res.FinalCoverage)
	}
	if err := metrics.ValidatePartition(res.CommunityOf, g.NumVertices(), res.NumCommunities); err != nil {
		t.Fatal(err)
	}
}

func TestDetectMaxSizeWithRefinePhases(t *testing.T) {
	// Both extensions together still terminate and produce a valid
	// partition. Refinement may move vertices into a community past the
	// cap (the cap constrains merges, not moves), so only partition
	// validity and termination are asserted.
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(1000, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectContext(context.Background(), g, Options{
		Threads: 2, MaxCommunitySize: 64, RefineEveryPhase: true, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.ValidatePartition(res.CommunityOf, g.NumVertices(), res.NumCommunities); err != nil {
		t.Fatal(err)
	}
}

func TestDetectDeterministicAcrossThreadCounts(t *testing.T) {
	// A deliberate deviation from the paper: their matching resolves races
	// with full/empty bits, so "different executions on the same data may
	// produce different maximal matchings" (§IV-B). Our worklist matches
	// only mutually-best edges under a total order, which is a
	// deterministic function of (graph, scores) regardless of worker count
	// or interleaving, and the synchronous two-phase sweeps of PLP and
	// refinement fix their tie and odd-sweep rules — so whole runs of every
	// engine, refined or not, are reproducible.
	// Pin that on a planted-community graph and a skewed one.
	lj, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 19))
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMATGraph(2, gen.DefaultRMAT(12, 19))
	if err != nil {
		t.Fatal(err)
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"ljsim-3000", lj}, {"rmat-12", rmat}} {
		for _, row := range []struct {
			name string
			opt  Options
		}{
			{"matching", Options{Engine: EngineMatching}},
			{"plp", Options{Engine: EnginePLP}},
			{"ensemble", Options{Engine: EngineEnsemble}},
			{"matching/conductance", Options{Scorer: scoring.Conductance{}}},
			{"ensemble/conductance", Options{Engine: EngineEnsemble, Scorer: scoring.Conductance{}}},
			{"matching/max-size-64", Options{MaxCommunitySize: 64}},
			{"matching/refine-every-phase", Options{RefineEveryPhase: true}},
			{"matching/refine-every-phase/max-size-64", Options{RefineEveryPhase: true, MaxCommunitySize: 64}},
		} {
			t.Run(gc.name+"/"+row.name, func(t *testing.T) {
				opt := row.opt
				opt.Threads = 1
				want, err := DetectContext(context.Background(), gc.g, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range []int{2, 3, 4, 7} {
					opt.Threads = p
					got, err := DetectContext(context.Background(), gc.g, opt)
					if err != nil {
						t.Fatal(err)
					}
					if got.NumCommunities != want.NumCommunities {
						t.Fatalf("p=%d: %d communities, want %d", p, got.NumCommunities, want.NumCommunities)
					}
					for v := range want.CommunityOf {
						if got.CommunityOf[v] != want.CommunityOf[v] {
							t.Fatalf("p=%d: vertex %d in community %d, want %d",
								p, v, got.CommunityOf[v], want.CommunityOf[v])
						}
					}
				}
			})
		}
	}
}

// wrappedModularity is not scoring.Modularity, so the engine scores it
// through Edge, one call per edge; its closed form is modularity's.
type wrappedModularity struct{}

func (wrappedModularity) Name() string { return "wrapped-modularity" }

func (wrappedModularity) Edge(w, degU, degV, selfU, selfV, totalWeight int64) float64 {
	return scoring.Modularity{}.Edge(w, degU, degV, selfU, selfV, totalWeight)
}

func TestCustomScorerMatchesBuiltin(t *testing.T) {
	// A scorer outside the builtin types takes the sweep's generic path;
	// since Edge computes the same bits as the inline loop, whole runs must
	// produce the builtin's partition exactly, with and without a size cap.
	g, err := gen.RMATGraph(2, gen.DefaultRMAT(12, 19))
	if err != nil {
		t.Fatal(err)
	}
	for _, maxSize := range []int64{0, 64} {
		for _, p := range []int{1, 2, 4} {
			want, err := DetectContext(context.Background(), g, Options{Threads: p, MaxCommunitySize: maxSize})
			if err != nil {
				t.Fatal(err)
			}
			got, err := DetectContext(context.Background(), g,
				Options{Threads: p, MaxCommunitySize: maxSize, Scorer: wrappedModularity{}})
			if err != nil {
				t.Fatal(err)
			}
			if got.NumCommunities != want.NumCommunities || len(got.Levels) != len(want.Levels) {
				t.Fatalf("maxSize=%d p=%d: %d communities in %d levels, builtin %d in %d", maxSize, p,
					got.NumCommunities, len(got.Levels), want.NumCommunities, len(want.Levels))
			}
			for v := range want.CommunityOf {
				if got.CommunityOf[v] != want.CommunityOf[v] {
					t.Fatalf("maxSize=%d p=%d: vertex %d in community %d, builtin %d",
						maxSize, p, v, got.CommunityOf[v], want.CommunityOf[v])
				}
			}
		}
	}
}
