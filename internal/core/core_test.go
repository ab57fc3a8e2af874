package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/scoring"
)

// validatePartition checks that comm is a dense partition into k
// communities.
func validatePartition(t *testing.T, comm []int64, k int64) {
	t.Helper()
	seen := make([]bool, k)
	for v, c := range comm {
		if c < 0 || c >= k {
			t.Fatalf("vertex %d in community %d outside [0,%d)", v, c, k)
		}
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("community %d empty", c)
		}
	}
}

// bruteModularity evaluates Q for a partition of the original graph.
func bruteModularity(g *graph.Graph, comm []int64, k int64) float64 {
	m := float64(g.TotalWeight(1))
	internal := make([]float64, k)
	vol := make([]float64, k)
	deg := g.WeightedDegrees(1)
	for x := int64(0); x < g.NumVertices(); x++ {
		internal[comm[x]] += float64(g.Self[x])
		vol[comm[x]] += float64(deg[x])
	}
	g.ForEachEdge(func(_ int64, u, v, w int64) {
		if comm[u] == comm[v] {
			internal[comm[u]] += float64(w)
		}
	})
	var q float64
	for c := int64(0); c < k; c++ {
		q += internal[c]/m - (vol[c]/(2*m))*(vol[c]/(2*m))
	}
	return q
}

func TestDetectDisjointCliques(t *testing.T) {
	// Four disjoint 6-cliques: no cross edges exist, so the local maximum
	// is exactly one community per clique.
	var edges []graph.Edge
	for c := int64(0); c < 4; c++ {
		for i := int64(0); i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				edges = append(edges, graph.Edge{U: c*6 + i, V: c*6 + j, W: 1})
			}
		}
	}
	g := graph.MustBuild(1, 24, edges)
	res, err := DetectContext(context.Background(), g, Options{Threads: 4, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != TermLocalMax {
		t.Fatalf("termination %q, want local-maximum", res.Termination)
	}
	if res.NumCommunities != 4 {
		t.Fatalf("found %d communities, want 4", res.NumCommunities)
	}
	validatePartition(t, res.CommunityOf, res.NumCommunities)
	for c := int64(0); c < 4; c++ {
		first := res.CommunityOf[c*6]
		for i := int64(1); i < 6; i++ {
			if res.CommunityOf[c*6+i] != first {
				t.Fatalf("clique %d split: %v", c, res.CommunityOf[c*6:c*6+6])
			}
		}
	}
}

func TestDetectCliqueChainQuality(t *testing.T) {
	// Cliques in a chain: the bridge edges tie with port-port intra edges
	// under the scoring total order, so the greedy result need not be the
	// exact clique partition — but it must stay close to it.
	g := gen.CliqueChain(8, 6)
	res, err := DetectContext(context.Background(), g, Options{Threads: 4, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	validatePartition(t, res.CommunityOf, res.NumCommunities)
	if res.NumCommunities < 4 || res.NumCommunities > 8 {
		t.Fatalf("found %d communities for 8 cliques", res.NumCommunities)
	}
	if res.FinalModularity < 0.5 {
		t.Fatalf("final modularity %v too low", res.FinalModularity)
	}
}

func TestDetectReportedModularityMatchesBruteForce(t *testing.T) {
	g := gen.Karate()
	res, err := DetectContext(context.Background(), g, Options{Threads: 2, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	validatePartition(t, res.CommunityOf, res.NumCommunities)
	want := bruteModularity(g, res.CommunityOf, res.NumCommunities)
	if math.Abs(res.FinalModularity-want) > 1e-9 {
		t.Fatalf("FinalModularity %v, brute force %v", res.FinalModularity, want)
	}
	// Agglomerative modularity on karate should land in the known band.
	if res.FinalModularity < 0.25 || res.FinalModularity > 0.45 {
		t.Fatalf("karate modularity %v outside [0.25, 0.45]", res.FinalModularity)
	}
}

func TestDetectCoverageTermination(t *testing.T) {
	g, _, err := gen.LJSim(4, gen.DefaultLJSim(3000, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectContext(context.Background(), g, Options{Threads: 4, MinCoverage: 0.5, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != TermCoverage {
		t.Fatalf("termination %q, want coverage", res.Termination)
	}
	if res.FinalCoverage < 0.5 {
		t.Fatalf("final coverage %v < 0.5", res.FinalCoverage)
	}
	validatePartition(t, res.CommunityOf, res.NumCommunities)
}

func TestDetectMaxPhases(t *testing.T) {
	g := gen.Ring(64)
	res, err := DetectContext(context.Background(), g, Options{Threads: 2, MaxPhases: 2, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != TermMaxPhases {
		t.Fatalf("termination %q, want max-phases", res.Termination)
	}
	if len(res.Stats) != 2 || len(res.Levels) != 2 {
		t.Fatalf("phases run: %d stats, %d levels, want 2", len(res.Stats), len(res.Levels))
	}
}

func TestDetectMinCommunities(t *testing.T) {
	g := gen.Clique(32)
	res, err := DetectContext(context.Background(), g, Options{Threads: 2, MinCommunities: 8, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities < 8 {
		t.Fatalf("contracted below the floor: %d communities", res.NumCommunities)
	}
	if res.Termination != TermMinCommunities && res.Termination != TermLocalMax {
		t.Fatalf("unexpected termination %q", res.Termination)
	}
}

func TestDetectStarStopsQuickly(t *testing.T) {
	// The star is the paper's slow case: one pair merges per phase. With
	// modularity scoring the process still terminates at a local maximum.
	g := gen.Star(32)
	res, err := DetectContext(context.Background(), g, Options{Threads: 2, MaxPhases: 100, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	validatePartition(t, res.CommunityOf, res.NumCommunities)
	if res.FinalModularity < -0.5 || res.FinalModularity > 1 {
		t.Fatalf("modularity %v outside [-0.5, 1]", res.FinalModularity)
	}
}

func TestDetectLevelsComposeToCommunityOf(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(1000, 9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectContext(context.Background(), g, Options{Threads: 2, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < g.NumVertices(); v++ {
		c := v
		for _, level := range res.Levels {
			c = level[c]
		}
		if c != res.CommunityOf[v] {
			t.Fatalf("vertex %d: composed %d != CommunityOf %d", v, c, res.CommunityOf[v])
		}
	}
}

func TestDetectModularityMonotoneUntilLocalMax(t *testing.T) {
	// Each merge has positive ΔQ, so per-phase modularity must not decrease.
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectContext(context.Background(), g, Options{Threads: 4, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for _, st := range res.Stats {
		if st.Modularity < prev-1e-9 {
			t.Fatalf("phase %d modularity %v below previous %v", st.Phase, st.Modularity, prev)
		}
		prev = st.Modularity
	}
	if res.FinalModularity < prev-1e-9 {
		t.Fatalf("final modularity %v below last phase %v", res.FinalModularity, prev)
	}
}

func TestDetectAllKernelCombinations(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(800, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, mk := range []MatchKernel{MatchWorklist, MatchEdgeSweep} {
		for _, ck := range []ContractKernel{ContractBucket, ContractListChase} {
			res, err := DetectContext(context.Background(), g, Options{Threads: 3, Matching: mk, Contraction: ck, Validate: true})
			if err != nil {
				t.Fatalf("%v/%v: %v", mk, ck, err)
			}
			validatePartition(t, res.CommunityOf, res.NumCommunities)
			if res.FinalModularity < 0.2 {
				t.Fatalf("%v/%v: modularity %v suspiciously low", mk, ck, res.FinalModularity)
			}
		}
	}
}

func TestDetectConductanceScorer(t *testing.T) {
	g := gen.CliqueChain(4, 5)
	res, err := DetectContext(context.Background(), g, Options{
		Threads: 2, Scorer: scoring.Conductance{}, MinCommunities: 2, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	validatePartition(t, res.CommunityOf, res.NumCommunities)
	if res.NumCommunities < 2 {
		t.Fatalf("%d communities with MinCommunities=2", res.NumCommunities)
	}
}

// TestConductanceNeedsAStopRule pins why the conductance scorer is paired
// with a stop rule: the one-community partition has conductance 0, the
// minimum of the summed metric, so a run to its local maximum merges the
// whole (connected) graph, while a coverage stop keeps communities apart.
func TestConductanceNeedsAStopRule(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Threads: 2, Scorer: scoring.Conductance{}, Validate: true}
	res, err := DetectContext(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities != 1 || res.Termination != TermLocalMax {
		t.Fatalf("no stop rule: %d communities, terminated by %v; want 1 by %v",
			res.NumCommunities, res.Termination, TermLocalMax)
	}
	opt.MinCoverage = 0.5
	if res, err = DetectContext(context.Background(), g, opt); err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities <= 1 {
		t.Fatalf("MinCoverage 0.5: %d communities, want more than 1", res.NumCommunities)
	}
}

func TestDetectEmptyAndTinyGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.NewEmpty(0),
		graph.NewEmpty(1),
		graph.NewEmpty(5), // isolated vertices
	} {
		res, err := DetectContext(context.Background(), g, Options{Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Termination != TermLocalMax {
			t.Fatalf("termination %q", res.Termination)
		}
		if res.NumCommunities != g.NumVertices() {
			t.Fatalf("%d communities for %d isolated vertices", res.NumCommunities, g.NumVertices())
		}
	}
}

func TestDetectSelfLoopOnlyGraph(t *testing.T) {
	g := graph.NewEmpty(3)
	g.Self[0], g.Self[1], g.Self[2] = 5, 2, 1
	res, err := DetectContext(context.Background(), g, Options{Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities != 3 {
		t.Fatalf("self-loop-only graph merged: %d communities", res.NumCommunities)
	}
	if res.FinalCoverage != 1 {
		t.Fatalf("coverage %v, want 1", res.FinalCoverage)
	}
}

func TestDetectRejectsBadOptions(t *testing.T) {
	g := gen.Ring(4)
	for _, opt := range []Options{
		{MinCoverage: -0.1},
		{MinCoverage: 1.5},
		{MaxPhases: -1},
		{MinCommunities: -2},
		{Matching: MatchKernel(99)},
		{Contraction: ContractKernel(99)},
	} {
		if _, err := DetectContext(context.Background(), g, opt); err == nil {
			t.Errorf("options %+v accepted", opt)
		}
	}
	if _, err := DetectContext(context.Background(), nil, Options{}); err == nil {
		t.Error("nil graph accepted")
	}
}

func TestDetectPhaseStatsPlausible(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(1500, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectContext(context.Background(), g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) == 0 {
		t.Fatal("no phases recorded")
	}
	prevV := g.NumVertices() + 1
	for _, st := range res.Stats {
		if st.Vertices >= prevV {
			t.Fatalf("phase %d vertices %d did not shrink from %d", st.Phase, st.Vertices, prevV)
		}
		if st.MatchedPairs < 1 || st.MatchedPairs > st.Vertices/2 {
			t.Fatalf("phase %d matched %d pairs of %d vertices", st.Phase, st.MatchedPairs, st.Vertices)
		}
		if st.Coverage < 0 || st.Coverage > 1 {
			t.Fatalf("phase %d coverage %v", st.Phase, st.Coverage)
		}
		if st.MatchPasses < 1 {
			t.Fatalf("phase %d match passes %d", st.Phase, st.MatchPasses)
		}
		prevV = st.Vertices
	}
}

func TestKernelStrings(t *testing.T) {
	if MatchWorklist.String() != "worklist" || MatchEdgeSweep.String() != "edgesweep" {
		t.Fatal("match kernel names")
	}
	if ContractBucket.String() != "bucket" ||
		ContractListChase.String() != "listchase" {
		t.Fatal("contract kernel names")
	}
	if MatchKernel(9).String() == "" || ContractKernel(9).String() == "" {
		t.Fatal("unknown kernels need diagnostic names")
	}
}

func TestDetectPropertyRandomGraphs(t *testing.T) {
	// Engine-wide property sweep on arbitrary inputs: the result is always
	// a valid dense partition, coverage and modularity are in range, phases
	// strictly shrink the community graph, and Levels compose to
	// CommunityOf.
	r := par.NewRNG(55)
	for trial := 0; trial < 15; trial++ {
		n := int64(5 + r.Intn(120))
		var edges []graph.Edge
		cnt := r.Intn(int(n) * 4)
		for i := 0; i < cnt; i++ {
			edges = append(edges, graph.Edge{U: r.Int63n(n), V: r.Int63n(n), W: r.Int63n(9) + 1})
		}
		g := graph.MustBuild(2, n, edges)
		res, err := DetectContext(context.Background(), g, Options{Threads: 1 + r.Intn(4), Validate: true})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		validatePartition(t, res.CommunityOf, res.NumCommunities)
		if res.FinalCoverage < -1e-9 || res.FinalCoverage > 1+1e-9 {
			t.Fatalf("trial %d: coverage %v", trial, res.FinalCoverage)
		}
		if res.FinalModularity < -0.5-1e-9 || res.FinalModularity > 1+1e-9 {
			t.Fatalf("trial %d: modularity %v", trial, res.FinalModularity)
		}
		prev := n
		for _, st := range res.Stats {
			if st.Vertices >= prev && st.Phase > 0 {
				t.Fatalf("trial %d: phase %d did not shrink", trial, st.Phase)
			}
			prev = st.Vertices
		}
		for v := int64(0); v < n; v++ {
			c := v
			for _, level := range res.Levels {
				c = level[c]
			}
			if c != res.CommunityOf[v] {
				t.Fatalf("trial %d: levels do not compose at vertex %d", trial, v)
			}
		}
	}
}
