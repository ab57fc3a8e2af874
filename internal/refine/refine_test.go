package refine_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/refine"
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
	res, err := refine.Refine(g, comm, 2, refine.Options{Threads: 2})
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
		res, err := refine.Refine(g, eng.CommunityOf, eng.NumCommunities, refine.Options{Threads: 4})
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
	res, err := refine.Refine(g, eng.CommunityOf, eng.NumCommunities, refine.Options{Threads: 2})
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
	res, err := refine.Refine(g, comm, 3, refine.Options{Threads: 2})
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
	res, err := refine.Refine(graph.NewEmpty(0), nil, 0, refine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CommunityOf) != 0 {
		t.Fatal("empty graph")
	}
	g := graph.NewEmpty(3)
	res, err = refine.Refine(g, []int64{0, 1, 2}, 3, refine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities != 3 || res.Moves != 0 {
		t.Fatalf("edgeless graph: %+v", res)
	}
}

func TestRefineRejectsBadPartition(t *testing.T) {
	g := gen.Ring(4)
	if _, err := refine.Refine(g, []int64{0, 0, 9, 0}, 2, refine.Options{}); err == nil {
		t.Fatal("accepted invalid partition")
	}
	if _, err := refine.Refine(g, []int64{0, 0}, 2, refine.Options{}); err == nil {
		t.Fatal("accepted wrong-length partition")
	}
}

func TestRefineInputUnmodified(t *testing.T) {
	g := gen.CliqueChain(2, 4)
	comm := []int64{0, 0, 0, 1, 1, 1, 1, 0} // scrambled
	orig := append([]int64(nil), comm...)
	if _, err := refine.Refine(g, comm, 2, refine.Options{Threads: 2}); err != nil {
		t.Fatal(err)
	}
	for i := range comm {
		if comm[i] != orig[i] {
			t.Fatal("input partition modified")
		}
	}
}

func TestRefineMaxSweeps(t *testing.T) {
	g, _, err := gen.LJSim(1, gen.DefaultLJSim(500, 3))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.DetectContext(context.Background(), g, core.Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := refine.Refine(g, eng.CommunityOf, eng.NumCommunities, refine.Options{Threads: 1, MaxSweeps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweeps != 1 {
		t.Fatalf("ran %d sweeps with MaxSweeps=1", res.Sweeps)
	}
}
