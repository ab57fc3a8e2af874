package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/contract"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/scoring"
)

func rollupGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rmat, _, err := gen.ConnectedRMAT(2, gen.DefaultRMAT(11, 5))
	if err != nil {
		t.Fatal(err)
	}
	lj, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 6))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"rmat": rmat, "ljsim": lj, "karate": gen.Karate()}
}

// TestRolledDegreesEqualRecomputedPerLevel drives the score/match/contract
// loop by hand and checks at every level that the degrees rolled through
// the contraction mapping equal WeightedDegrees of the contracted graph,
// serial and parallel, starting from degreesOf's degrees of the input.
func TestRolledDegreesEqualRecomputedPerLevel(t *testing.T) {
	for name, g0 := range rollupGraphs(t) {
		for _, p := range []int{1, 2, 4} {
			ec := exec.Background(p)
			s := NewScratch()
			g := g0
			deg, idx := degreesOf(ec, g, s, 0), 0
			if err := sameDegrees(deg, g.WeightedDegrees(p)); err != nil {
				t.Fatalf("%s p=%d input: %v", name, p, err)
			}
			for level := 0; ; level++ {
				scores := make([]float64, len(g.V))
				scoring.Score(ec, scoring.Modularity{}, g, deg, g.TotalWeight(p), scores, nil, 0, nil)
				mres := matching.Worklist(ec, g, scores, nil)
				if mres.Pairs == 0 {
					break
				}
				ng, mapping := contract.Bucket(ec, g, mres.Match, nil, nil, nil)
				deg, idx = rollup(ec, s, &s.degs, deg, idx, mapping, int(ng.NumVertices()))
				if err := sameDegrees(deg, ng.WeightedDegrees(p)); err != nil {
					t.Fatalf("%s p=%d level %d: %v", name, p, level, err)
				}
				g = ng
			}
		}
	}
}

// TestRolledDegreesThroughEngine runs the engine with Options.Validate,
// which recomputes every rolled-up level's degrees from the edges, across
// engines and thread counts, and checks the final modularity (evaluated on
// the last rolled degrees) against an independent recompute.
func TestRolledDegreesThroughEngine(t *testing.T) {
	for name, g := range rollupGraphs(t) {
		for _, engine := range []Engine{EngineMatching, EngineEnsemble} {
			for _, p := range []int{1, 2, 4} {
				opt := Options{Threads: p, Engine: engine, Validate: true}
				res, err := detectExec(context.Background(), g, opt, NewScratch())
				if err != nil {
					t.Fatalf("%s engine %d p=%d: %v", name, engine, p, err)
				}
				want := metrics.Modularity(p, g, res.CommunityOf, res.NumCommunities)
				if math.Abs(res.FinalModularity-want) > 1e-9 {
					t.Fatalf("%s engine %d p=%d: modularity %v, recomputed %v",
						name, engine, p, res.FinalModularity, want)
				}
			}
		}
	}
}

// TestRolledDegreesThroughIncremental covers the seed stage, whose
// community-graph degrees feed the first incremental matching level.
func TestRolledDegreesThroughIncremental(t *testing.T) {
	g := rollupGraphs(t)["ljsim"]
	opt := Options{Threads: 2, Validate: true}
	ov, dend := bootstrapIncremental(t, g, opt)
	r := par.NewRNG(11)
	s := NewScratch()
	ref := g
	for v := uint64(1); v <= 3; v++ {
		ir, err := DetectIncrementalWithContext(context.Background(), ov, dend, randomBatch(r, ref, 200, v), opt, s)
		if err != nil {
			t.Fatalf("batch %d: %v", v, err)
		}
		want := metrics.Modularity(2, ir.Graph, ir.CommunityOf, ir.NumCommunities)
		if math.Abs(ir.FinalModularity-want) > 1e-9 {
			t.Fatalf("batch %d: modularity %v, recomputed %v", v, ir.FinalModularity, want)
		}
		dend, ref = ir.Dendrogram, ir.Graph
	}
}
