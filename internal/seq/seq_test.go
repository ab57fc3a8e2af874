package seq_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/seq"
)

// assertIdentical requires the oracle and the parallel engine to agree on
// every vertex's community.
func assertIdentical(t *testing.T, g *graph.Graph, opt core.Options, sopt seq.Options) {
	t.Helper()
	want := seq.Detect(g, sopt)
	got, err := core.DetectContext(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumCommunities != want.NumCommunities {
		t.Fatalf("engine %d communities, oracle %d", got.NumCommunities, want.NumCommunities)
	}
	if len(got.Stats) != want.Phases {
		t.Fatalf("engine %d phases, oracle %d", len(got.Stats), want.Phases)
	}
	for v := range want.CommunityOf {
		if got.CommunityOf[v] != want.CommunityOf[v] {
			t.Fatalf("vertex %d: engine %d, oracle %d", v, got.CommunityOf[v], want.CommunityOf[v])
		}
	}
	if math.Abs(got.FinalModularity-want.Modularity) > 1e-9 {
		t.Fatalf("modularity: engine %v, oracle %v", got.FinalModularity, want.Modularity)
	}
	if math.Abs(got.FinalCoverage-want.FinalCoverage) > 1e-9 {
		t.Fatalf("coverage: engine %v, oracle %v", got.FinalCoverage, want.FinalCoverage)
	}
}

func TestOracleMatchesEngineOnRandomGraphs(t *testing.T) {
	r := par.NewRNG(23)
	for trial := 0; trial < 12; trial++ {
		n := int64(20 + r.Intn(150))
		var edges []graph.Edge
		for i := 0; i < int(n)*3; i++ {
			edges = append(edges, graph.Edge{U: r.Int63n(n), V: r.Int63n(n), W: r.Int63n(5) + 1})
		}
		g := graph.MustBuild(2, n, edges)
		for _, p := range []int{1, 4} {
			assertIdentical(t, g, core.Options{Threads: p}, seq.Options{})
		}
	}
}

func TestOracleMatchesEngineOnLJSim(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 7))
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, g, core.Options{Threads: 4}, seq.Options{})
}

func TestOracleMatchesEngineWithCoverageStop(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(2000, 13))
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, g,
		core.Options{Threads: 3, MinCoverage: 0.5},
		seq.Options{MinCoverage: 0.5})
}

func TestOracleMatchesEngineWithMaxPhases(t *testing.T) {
	g, _, err := gen.LJSim(1, gen.DefaultLJSim(1000, 2))
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, g,
		core.Options{Threads: 2, MaxPhases: 3},
		seq.Options{MaxPhases: 3})
}

func TestOracleMatchesEngineOnRMAT(t *testing.T) {
	g, _, err := gen.ConnectedRMAT(2, gen.DefaultRMAT(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, g, core.Options{Threads: 4}, seq.Options{})
}

func TestOracleDegenerate(t *testing.T) {
	res := seq.Detect(graph.NewEmpty(4), seq.Options{})
	if res.NumCommunities != 4 || res.Phases != 0 {
		t.Fatalf("isolated vertices: %+v", res)
	}
	res = seq.Detect(graph.NewEmpty(0), seq.Options{})
	if res.NumCommunities != 0 {
		t.Fatalf("empty graph: %+v", res)
	}
}

func TestOracleKarate(t *testing.T) {
	assertIdentical(t, gen.Karate(), core.Options{Threads: 2}, seq.Options{})
}
