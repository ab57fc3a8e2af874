package contract

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

func TestByMappingEqualsBucketOnMatchings(t *testing.T) {
	r := par.NewRNG(17)
	for trial := 0; trial < 8; trial++ {
		n := int64(30 + r.Intn(70))
		var edges []graph.Edge
		for i := 0; i < int(n)*3; i++ {
			edges = append(edges, graph.Edge{U: r.Int63n(n), V: r.Int63n(n), W: r.Int63n(4) + 1})
		}
		g := graph.MustBuild(2, n, edges)
		m := noMatch(n)
		g.ForEachEdge(func(_ int64, u, v, _ int64) {
			if m[u] == -1 && m[v] == -1 && r.Float64() < 0.5 {
				m[u], m[v] = v, u
			}
		})
		viaBucket, mapping := Bucket(exec.Background(2), g, m, nil, nil, nil)
		k := viaBucket.NumVertices()
		viaMapping := ByMapping(exec.Background(2), g, mapping, k, nil, nil)
		assertSameContraction(t, "bucket", viaBucket, "bymapping", viaMapping)
	}
}

func TestByMappingArbitraryPartition(t *testing.T) {
	// Group a 12-vertex ring into 3 arcs of 4: each arc becomes a community
	// with 3 internal edges; consecutive arcs share one edge.
	g := gen.Ring(12)
	mapping := make([]int64, 12)
	for v := range mapping {
		mapping[v] = int64(v) / 4
	}
	ng := ByMapping(exec.Background(1), g, mapping, 3, nil, nil)
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	if ng.NumVertices() != 3 {
		t.Fatalf("|V| = %d, want 3", ng.NumVertices())
	}
	for c := int64(0); c < 3; c++ {
		if ng.Self[c] != 3 {
			t.Fatalf("Self[%d] = %d, want 3", c, ng.Self[c])
		}
	}
	if ng.TotalWeight(1) != g.TotalWeight(1) {
		t.Fatal("weight not conserved")
	}
	// Community graph of 3 arcs on a ring is a triangle with unit weights.
	if ng.NumEdges() != 3 {
		t.Fatalf("|E| = %d, want 3", ng.NumEdges())
	}
}

func TestByMappingSingleCommunity(t *testing.T) {
	g := gen.Clique(6)
	mapping := make([]int64, 6)
	ng := ByMapping(exec.Background(2), g, mapping, 1, nil, nil)
	if ng.NumEdges() != 0 || ng.Self[0] != 15 {
		t.Fatalf("collapse to one community: |E|=%d Self=%d", ng.NumEdges(), ng.Self[0])
	}
}
