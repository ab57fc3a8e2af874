package community_test

import (
	"context"
	"fmt"
	"log"

	community "repro"
)

// Detect two obvious communities: a pair of disjoint triangles. Every
// triangle collapses into one community at the local maximum regardless of
// thread count, so the output is deterministic.
func ExampleDetect() {
	g, err := community.Build(0, 6, []community.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 1}, {U: 3, V: 5, W: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := community.Detect(context.Background(), g, community.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("communities:", res.NumCommunities)
	fmt.Println("termination:", res.Termination)
	fmt.Println("first triangle together:",
		res.CommunityOf[0] == res.CommunityOf[1] && res.CommunityOf[1] == res.CommunityOf[2])
	fmt.Println("triangles separated:", res.CommunityOf[0] != res.CommunityOf[3])
	// Output:
	// communities: 2
	// termination: local-maximum
	// first triangle together: true
	// triangles separated: true
}

// heavyEdge scores a merge by the edge's raw weight, the coarsening rule of
// multilevel graph partitioning: matching contracts the heaviest edges
// first. Edge reads only what the Scorer contract hands it, so it is pure
// and safe for concurrent use.
type heavyEdge struct{}

func (heavyEdge) Name() string { return "heavy-edge" }

func (heavyEdge) Edge(w, _, _, _, _, _ int64) float64 { return float64(w) }

// A custom metric plugs in through the Scorer interface. Heavy-edge scores
// never go non-positive, so the run never reaches a local maximum and needs
// a bound: here MaxPhases stops it after one contraction, which merges the
// three heavy edges of a weighted path.
func ExampleScorer() {
	g, err := community.Build(0, 6, []community.Edge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 5},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 5},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := community.Detect(context.Background(), g,
		community.Options{Scorer: heavyEdge{}, MaxPhases: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("communities:", res.NumCommunities)
	fmt.Println("termination:", res.Termination)
	fmt.Println("heavy pairs merged:", res.CommunityOf[0] == res.CommunityOf[1] &&
		res.CommunityOf[2] == res.CommunityOf[3] && res.CommunityOf[4] == res.CommunityOf[5])
	// Output:
	// communities: 3
	// termination: max-phases
	// heavy pairs merged: true
}

// Build accumulates duplicate edges and folds self-loops, the paper's
// construction rule for R-MAT output.
func ExampleBuild() {
	g, err := community.Build(0, 3, []community.Edge{
		{U: 0, V: 1, W: 2},
		{U: 1, V: 0, W: 3}, // same undirected edge: weights accumulate
		{U: 2, V: 2, W: 5}, // self-loop: folds into the Self array
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("edges:", g.NumEdges())
	fmt.Println("total weight:", g.TotalWeight(0))
	fmt.Println("self-loop at 2:", g.Self[2])
	// Output:
	// edges: 1
	// total weight: 10
	// self-loop at 2: 5
}

// Refine repairs a deliberately mis-assigned vertex by greedy local moves —
// the paper's named future-work extension.
func ExampleRefine() {
	g := community.CliqueChain(2, 5) // two 5-cliques joined by a bridge
	comm := []int64{1, 0, 0, 0, 0, 1, 1, 1, 1, 1}
	// Vertex 0 is in the wrong community.
	res, err := community.Refine(g, comm, 2, community.RefineOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("vertex 0 rejoined its clique:", res.CommunityOf[0] == res.CommunityOf[1])
	fmt.Println("improved:", res.ModularityAfter > res.ModularityBefore)
	// Output:
	// vertex 0 rejoined its clique: true
	// improved: true
}

// Compare measures agreement between a detected partition and ground truth.
func ExampleCompare() {
	pred := []int64{0, 0, 1, 1, 2, 2}
	truth := []int64{2, 2, 0, 0, 1, 1} // identical grouping, relabeled
	a, err := community.Compare(pred, 3, truth, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("NMI=%.2f ARI=%.2f pairF1=%.2f\n", a.NMI, a.ARI, a.PairF1)
	// Output:
	// NMI=1.00 ARI=1.00 pairF1=1.00
}

// NewDendrogram exposes the engine's merge hierarchy for drill-down.
func ExampleNewDendrogram() {
	d, err := community.NewDendrogram(4, [][]int64{
		{0, 0, 1, 1}, // 4 vertices merge into 2 communities
		{0, 0},       // which merge into 1
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("levels:", d.NumLevels())
	fmt.Println("counts:", d.CommunityCounts())
	members, _ := d.Members(1, 0)
	fmt.Println("community 0 at level 1:", members)
	trace, _ := d.TraceVertex(3)
	fmt.Println("vertex 3 path:", trace)
	// Output:
	// levels: 2
	// counts: [4 2 1]
	// community 0 at level 1: [0 1]
	// vertex 3 path: [3 1 0]
}

// Evaluate summarizes partition quality on the original graph.
func ExampleEvaluate() {
	g := community.CliqueChain(3, 4)
	comm := []int64{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2}
	s := community.Evaluate(0, g, comm, 3)
	fmt.Println("communities:", s.NumCommunities)
	fmt.Printf("coverage: %.2f\n", s.Coverage)
	fmt.Println("sizes:", s.MinSize, s.MedianSize, s.MaxSize)
	// Output:
	// communities: 3
	// coverage: 0.90
	// sizes: 4 4 4
}
