package contract

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

// densify maps a sparse label array (values in [0,n)) to a dense mapping by
// order of first label value, the same order ByLabels' prefix-sum densify
// produces. Returns the mapping and the community count.
func densify(labels []int64) ([]int64, int64) {
	n := len(labels)
	flags := make([]int64, n)
	for _, l := range labels {
		flags[l] = 1
	}
	var k int64
	dense := make([]int64, n)
	for i := 0; i < n; i++ {
		if flags[i] == 1 {
			dense[i] = k
			k++
		}
	}
	mapping := make([]int64, n)
	for v, l := range labels {
		mapping[v] = dense[l]
	}
	return mapping, k
}

func TestByLabelsEqualsByMapping(t *testing.T) {
	// Random sparse label arrays on random multigraphs: ByLabels must equal
	// ByMapping over the hand-densified mapping.
	r := par.NewRNG(23)
	for trial := 0; trial < 8; trial++ {
		n := int64(20 + r.Intn(60))
		var edges []graph.Edge
		for i := 0; i < int(n)*3; i++ {
			edges = append(edges, graph.Edge{U: r.Int63n(n), V: r.Int63n(n), W: r.Int63n(4) + 1})
		}
		g := graph.MustBuild(2, n, edges)
		// Labels imitate a PLP result: vertex ids, heavily aliased.
		labels := make([]int64, n)
		for v := range labels {
			labels[v] = r.Int63n(n)
		}
		mapping, k := densify(labels)
		ng, gotMap, gotK := ByLabels(exec.Background(2), g, labels, nil, nil, nil)
		if gotK != k {
			t.Fatalf("trial %d: ByLabels found %d communities, densify %d", trial, gotK, k)
		}
		for v := range mapping {
			if gotMap[v] != mapping[v] {
				t.Fatalf("trial %d: mapping[%d]=%d, want %d", trial, v, gotMap[v], mapping[v])
			}
		}
		want := ByMapping(exec.Background(2), g, mapping, k, nil, nil)
		assertSameContraction(t, "bymapping", want, "bylabels", ng)
	}
}

func TestByLabelsIdentity(t *testing.T) {
	// Identity labels: nothing merges, the contraction is the graph itself.
	g := gen.CliqueChain(3, 4)
	n := g.NumVertices()
	labels := make([]int64, n)
	for v := range labels {
		labels[v] = int64(v)
	}
	ng, _, k := ByLabels(exec.Background(2), g, labels, nil, nil, nil)
	if k != n {
		t.Fatalf("identity labels produced %d communities, want %d", k, n)
	}
	if ng.NumEdges() != g.NumEdges() || ng.TotalWeight(1) != g.TotalWeight(1) {
		t.Fatalf("identity contraction changed the graph: |E| %d->%d",
			g.NumEdges(), ng.NumEdges())
	}
}

func TestByLabelsSingleLabel(t *testing.T) {
	// All vertices share the (sparse) label 3: one community absorbing the
	// whole weight as a self-loop.
	g := gen.Clique(6)
	labels := []int64{3, 3, 3, 3, 3, 3}
	ng, mapping, k := ByLabels(exec.Background(1), g, labels, nil, nil, nil)
	if k != 1 || ng.NumEdges() != 0 || ng.Self[0] != 15 {
		t.Fatalf("collapse: k=%d |E|=%d Self=%v", k, ng.NumEdges(), ng.Self)
	}
	for v, m := range mapping {
		if m != 0 {
			t.Fatalf("mapping[%d]=%d, want 0", v, m)
		}
	}
}

func TestByLabelsArena(t *testing.T) {
	// A run through a scratch and a destination must reproduce the fresh
	// run and survive reuse across differently-sized graphs.
	graphs := []*graph.Graph{gen.CliqueChain(4, 5), gen.Karate(), gen.CliqueChain(2, 3)}
	s := &Scratch{}
	dst := &graph.Graph{}
	for _, g := range graphs {
		n := int(g.NumVertices())
		labels := make([]int64, n)
		for v := range labels {
			labels[v] = int64(v) / 3 * 3 // groups of three, sparse values
		}
		want, wantMap, wantK := ByLabels(exec.Background(2), g, labels, nil, nil, nil)
		got, gotMap, gotK := ByLabels(exec.Background(2), g, labels, s, dst, nil)
		if gotK != wantK {
			t.Fatalf("arena found %d communities, fresh %d", gotK, wantK)
		}
		for v := 0; v < n; v++ {
			if gotMap[v] != wantMap[v] {
				t.Fatalf("arena mapping[%d]=%d, fresh %d", v, gotMap[v], wantMap[v])
			}
		}
		assertSameContraction(t, "fresh", want, "arena", got)
	}
}
