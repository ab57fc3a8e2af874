package community

import (
	"bytes"
	"context"
	"math"
	"testing"
)

// TestEndToEndSocialNetwork drives the whole public API the way the
// quickstart does: generate → detect → evaluate → refine → serialize.
func TestEndToEndSocialNetwork(t *testing.T) {
	g, truth, err := LJSim(0, DefaultLJSim(3000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(truth)) != g.NumVertices() {
		t.Fatalf("truth has %d labels for %d vertices", len(truth), g.NumVertices())
	}

	res, err := Detect(context.Background(), g, Options{MinCoverage: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Termination != TermCoverage && res.Termination != TermLocalMax {
		t.Fatalf("unexpected termination %q", res.Termination)
	}
	sum := Evaluate(0, g, res.CommunityOf, res.NumCommunities)
	if sum.NumCommunities != res.NumCommunities {
		t.Fatalf("summary communities %d != result %d", sum.NumCommunities, res.NumCommunities)
	}
	if math.Abs(sum.Modularity-res.FinalModularity) > 1e-9 {
		t.Fatalf("summary modularity %v != engine %v", sum.Modularity, res.FinalModularity)
	}

	ref, err := Refine(g, res.CommunityOf, res.NumCommunities, RefineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.ModularityAfter < res.FinalModularity {
		t.Fatalf("refinement degraded quality: %v -> %v", res.FinalModularity, ref.ModularityAfter)
	}

	var buf bytes.Buffer
	if err := WriteCommunities(&buf, ref.CommunityOf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no community output written")
	}
}

// TestEndToEndRMATPipeline mirrors the paper's artificial workload: R-MAT,
// accumulate duplicates, largest component, detect with coverage stop.
func TestEndToEndRMATPipeline(t *testing.T) {
	g, orig, err := ConnectedRMAT(0, DefaultRMAT(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(orig)) != g.NumVertices() {
		t.Fatalf("component mapping has %d entries for %d vertices", len(orig), g.NumVertices())
	}
	if _, k := Components(0, g); k != 1 {
		t.Fatalf("largest component is disconnected: %d components", k)
	}
	res, err := Detect(context.Background(), g, Options{MinCoverage: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities < 1 || res.NumCommunities > g.NumVertices() {
		t.Fatalf("absurd community count %d", res.NumCommunities)
	}
}

// TestKernelAblationEquivalence checks that all kernel combinations agree on
// a deterministic workload (four disjoint cliques): identical partitions up
// to labeling.
func TestKernelAblationEquivalence(t *testing.T) {
	var edges []Edge
	for c := int64(0); c < 4; c++ {
		for i := int64(0); i < 5; i++ {
			for j := i + 1; j < 5; j++ {
				edges = append(edges, Edge{U: c*5 + i, V: c*5 + j, W: 1})
			}
		}
	}
	g, err := Build(0, 20, edges)
	if err != nil {
		t.Fatal(err)
	}
	opts := []Options{
		{Matching: MatchWorklist, Contraction: ContractBucket},
		{Matching: MatchWorklist, Contraction: ContractBucketNonContiguous},
		{Matching: MatchWorklist, Contraction: ContractListChase},
		{Matching: MatchEdgeSweep, Contraction: ContractBucket},
	}
	for _, opt := range opts {
		res, err := Detect(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumCommunities != 4 {
			t.Fatalf("%v/%v: %d communities, want 4", opt.Matching, opt.Contraction, res.NumCommunities)
		}
		for c := int64(0); c < 4; c++ {
			first := res.CommunityOf[c*5]
			for i := int64(1); i < 5; i++ {
				if res.CommunityOf[c*5+i] != first {
					t.Fatalf("%v/%v: clique %d split", opt.Matching, opt.Contraction, c)
				}
			}
		}
	}
}

// TestBaselinesAgreeOnKarate cross-checks all four methods on the standard
// tiny benchmark: everything lands in the known modularity band.
func TestBaselinesAgreeOnKarate(t *testing.T) {
	g := Karate()
	eng, err := Detect(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cnm := CNM(g)
	lou := Louvain(g, 5)
	for name, q := range map[string]float64{
		"engine":  eng.FinalModularity,
		"cnm":     cnm.Modularity,
		"louvain": lou.Modularity,
	} {
		if q < 0.30 || q > 0.45 {
			t.Errorf("%s karate modularity %v outside [0.30, 0.45]", name, q)
		}
	}
}

// TestConductanceObjective runs the engine end to end under the alternative
// metric (§III: "maximizing modularity ... or minimizing conductance").
func TestConductanceObjective(t *testing.T) {
	g, _, err := LJSim(0, DefaultLJSim(1000, 9))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Detect(context.Background(), g, Options{
		Scorer:         ConductanceScorer{},
		MinCommunities: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumCommunities < 10 {
		t.Fatalf("violated community floor: %d", res.NumCommunities)
	}
	sum := Evaluate(0, g, res.CommunityOf, res.NumCommunities)
	if sum.MeanConductance < 0 || sum.MeanConductance > 1 {
		t.Fatalf("conductance out of range: %+v", sum)
	}
}

// TestIORoundTripThroughFacade exercises the façade I/O paths.
func TestIORoundTripThroughFacade(t *testing.T) {
	g, _, err := SBM(0, SBMConfig{Blocks: []int64{30, 30}, PIn: 0.4, POut: 0.02, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var el, bin bytes.Buffer
	if err := WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, g); err != nil {
		t.Fatal(err)
	}
	fromEL, err := ReadEdgeList(&el, 0, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := ReadBinary(&bin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fromEL.NumEdges() != g.NumEdges() || fromBin.NumEdges() != g.NumEdges() {
		t.Fatalf("edge counts changed: %d / %d / %d",
			g.NumEdges(), fromEL.NumEdges(), fromBin.NumEdges())
	}
	if fromEL.TotalWeight(0) != g.TotalWeight(0) || fromBin.TotalWeight(0) != g.TotalWeight(0) {
		t.Fatal("weights changed in round trip")
	}
	var metis bytes.Buffer
	if err := WriteMETIS(&metis, g); err != nil {
		t.Fatal(err)
	}
	if metis.Len() == 0 {
		t.Fatal("empty METIS output")
	}
}
