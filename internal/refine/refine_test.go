package refine_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/refine"
	"repro/internal/seq"
)

func TestRefineFixesObviousMisassignment(t *testing.T) {
	// Two 5-cliques joined by a bridge; move one vertex to the wrong side
	// and let refinement repair it.
	g := gen.CliqueChain(2, 5)
	comm := make([]int64, 10)
	for i := 5; i < 10; i++ {
		comm[i] = 1
	}
	comm[0] = 1 // misassigned
	before := metrics.Modularity(1, g, comm, 2)
	res, err := refine.Refine(exec.Background(2), g, comm, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModularityAfter <= before {
		t.Fatalf("no improvement: %v -> %v", before, res.ModularityAfter)
	}
	if res.Moves == 0 {
		t.Fatal("no moves recorded")
	}
	// Vertex 0 must be back with its clique.
	if res.CommunityOf[0] != res.CommunityOf[1] {
		t.Fatalf("vertex 0 still misassigned: %v", res.CommunityOf[:5])
	}
}

func TestRefineNeverDegrades(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g, _, err := gen.LJSim(2, gen.DefaultLJSim(800, seed))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := core.DetectContext(context.Background(), g, core.Options{Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		res, err := refine.Refine(exec.Background(4), g, eng.CommunityOf, eng.NumCommunities)
		if err != nil {
			t.Fatal(err)
		}
		if res.ModularityAfter < res.ModularityBefore {
			t.Fatalf("seed %d: degraded %v -> %v", seed, res.ModularityBefore, res.ModularityAfter)
		}
		if err := metrics.ValidatePartition(res.CommunityOf, g.NumVertices(), res.NumCommunities); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestRefineImprovesEngineOutputSubstantially(t *testing.T) {
	// The headline purpose of the extension: close part of the gap between
	// matching-based agglomeration and move-based methods.
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(2000, 11))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.DetectContext(context.Background(), g, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := refine.Refine(exec.Background(2), g, eng.CommunityOf, eng.NumCommunities)
	if err != nil {
		t.Fatal(err)
	}
	if res.ModularityAfter < eng.FinalModularity+0.05 {
		t.Fatalf("refinement gained too little: %v -> %v", eng.FinalModularity, res.ModularityAfter)
	}
}

func TestRefineIdempotentOnOptimum(t *testing.T) {
	// A perfect clique partition admits no improving single move.
	g := gen.CliqueChain(3, 6)
	comm := make([]int64, 18)
	for i := range comm {
		comm[i] = int64(i) / 6
	}
	res, err := refine.Refine(exec.Background(2), g, comm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Moves != 0 {
		t.Fatalf("moved %d vertices out of a locally optimal partition", res.Moves)
	}
	if res.ModularityAfter != res.ModularityBefore {
		t.Fatalf("modularity changed: %v -> %v", res.ModularityBefore, res.ModularityAfter)
	}
}

func TestRefineDegenerate(t *testing.T) {
	res, err := refine.Refine(exec.Background(0), graph.NewEmpty(0), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CommunityOf) != 0 {
		t.Fatal("empty graph")
	}
	g := graph.NewEmpty(3)
	res, err = refine.Refine(exec.Background(0), g, []int64{0, 1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities != 3 || res.Moves != 0 {
		t.Fatalf("edgeless graph: %+v", res)
	}
}

func TestRefineRejectsBadPartition(t *testing.T) {
	g := gen.Ring(4)
	if _, err := refine.Refine(exec.Background(0), g, []int64{0, 0, 9, 0}, 2); err == nil {
		t.Fatal("accepted invalid partition")
	}
	if _, err := refine.Refine(exec.Background(0), g, []int64{0, 0}, 2); err == nil {
		t.Fatal("accepted wrong-length partition")
	}
}

func TestRefineInputUnmodified(t *testing.T) {
	g := gen.CliqueChain(2, 4)
	comm := []int64{0, 0, 0, 1, 1, 1, 1, 0} // scrambled
	orig := append([]int64(nil), comm...)
	if _, err := refine.Refine(exec.Background(2), g, comm, 2); err != nil {
		t.Fatal(err)
	}
	for i := range comm {
		if comm[i] != orig[i] {
			t.Fatal("input partition modified")
		}
	}
}

// hubGraph is a star whose hub also belongs to a clique: a skewed degree
// next to a dense block, so one vertex's row spans most of the edges.
func hubGraph() *graph.Graph {
	const leaves, clique = 400, 12
	var edges []graph.Edge
	for v := int64(1); v <= leaves; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v, W: 1})
	}
	for u := int64(leaves + 1); u <= leaves+clique; u++ {
		edges = append(edges, graph.Edge{U: 0, V: u, W: 2})
		for v := u + 1; v <= leaves+clique; v++ {
			edges = append(edges, graph.Edge{U: u, V: v, W: 3})
		}
	}
	return graph.MustBuild(1, leaves+clique+1, edges)
}

// TestRefineMatchesOracle requires the exact partition, sweep and move
// counts of the sequential oracle at every thread count, from the engine's
// partition and from singletons.
func TestRefineMatchesOracle(t *testing.T) {
	lj, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 7))
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMATGraph(2, gen.DefaultRMAT(11, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"ljsim-3000", lj}, {"rmat-11", rmat}, {"hub", hubGraph()}} {
		eng, err := core.DetectContext(context.Background(), gc.g, core.Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		n := gc.g.NumVertices()
		singletons := make([]int64, n)
		for v := range singletons {
			singletons[v] = int64(v)
		}
		for _, in := range []struct {
			name string
			comm []int64
			k    int64
		}{{"engine", eng.CommunityOf, eng.NumCommunities}, {"singletons", singletons, n}} {
			want := seq.Refine(gc.g, in.comm, in.k)
			if in.name == "singletons" && want.Moves == 0 {
				t.Fatalf("%s/%s: the oracle moved nothing", gc.name, in.name)
			}
			for _, p := range []int{1, 2, 3, 4, 7} {
				got, err := refine.Refine(exec.Background(p), gc.g, in.comm, in.k)
				if err != nil {
					t.Fatal(err)
				}
				if got.Sweeps != want.Sweeps || got.Moves != want.Moves || got.NumCommunities != want.NumCommunities {
					t.Fatalf("%s/%s p=%d: %d sweeps, %d moves, %d communities; oracle %d, %d, %d", gc.name, in.name, p,
						got.Sweeps, got.Moves, got.NumCommunities, want.Sweeps, want.Moves, want.NumCommunities)
				}
				for v := range want.CommunityOf {
					if got.CommunityOf[v] != want.CommunityOf[v] {
						t.Fatalf("%s/%s p=%d: vertex %d in %d, oracle %d", gc.name, in.name, p, v, got.CommunityOf[v], want.CommunityOf[v])
					}
				}
			}
		}
	}
}
