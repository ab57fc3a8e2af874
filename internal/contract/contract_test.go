package contract

import (
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/par"
	"repro/internal/scoring"
)

// kernels under test.
var kernels = map[string]func(p int, g *graph.Graph, match []int64) (*graph.Graph, []int64){
	"bucket": func(p int, g *graph.Graph, m []int64) (*graph.Graph, []int64) {
		return Bucket(exec.Background(p), g, m, nil, nil, nil)
	},
	"listchase": func(p int, g *graph.Graph, m []int64) (*graph.Graph, []int64) {
		return ListChase(exec.Background(p), g, m)
	},
}

// noMatch returns an all-unmatched matching.
func noMatch(n int64) []int64 {
	m := make([]int64, n)
	for i := range m {
		m[i] = matching.Unmatched
	}
	return m
}

func TestRelabelIdentityWhenUnmatched(t *testing.T) {
	g := gen.Ring(6)
	mapping, k := Relabel(exec.Background(2), g, noMatch(6), nil)
	if k != 6 {
		t.Fatalf("k = %d, want 6", k)
	}
	for x, c := range mapping {
		if c != int64(x) {
			t.Fatalf("mapping[%d] = %d", x, c)
		}
	}
}

func TestRelabelPairs(t *testing.T) {
	// Pairs (0,3) and (1,2); vertex 4 unmatched.
	m := []int64{3, 2, 1, 0, matching.Unmatched}
	g := graph.NewEmpty(5)
	mapping, k := Relabel(exec.Background(1), g, m, nil)
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	if mapping[0] != mapping[3] || mapping[1] != mapping[2] {
		t.Fatalf("pairs not collapsed: %v", mapping)
	}
	if mapping[0] == mapping[1] || mapping[0] == mapping[4] || mapping[1] == mapping[4] {
		t.Fatalf("distinct communities collided: %v", mapping)
	}
	// Dense ids: exactly {0, 1, 2}.
	seen := map[int64]bool{}
	for _, c := range mapping {
		if c < 0 || c >= k {
			t.Fatalf("id %d out of range", c)
		}
		seen[c] = true
	}
	if len(seen) != 3 {
		t.Fatalf("ids not dense: %v", mapping)
	}
}

func TestContractSingleEdgePair(t *testing.T) {
	// Matching the only edge folds its weight into the merged self-loop.
	g := graph.MustBuild(1, 2, []graph.Edge{{U: 0, V: 1, W: 5}})
	m := []int64{1, 0}
	for name, kern := range kernels {
		ng, mapping := kern(2, g, m)
		if err := ng.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ng.NumVertices() != 1 || ng.NumEdges() != 0 {
			t.Fatalf("%s: |V|=%d |E|=%d, want 1/0", name, ng.NumVertices(), ng.NumEdges())
		}
		if ng.Self[0] != 5 {
			t.Fatalf("%s: Self[0] = %d, want 5", name, ng.Self[0])
		}
		if mapping[0] != 0 || mapping[1] != 0 {
			t.Fatalf("%s: mapping %v", name, mapping)
		}
	}
}

func TestContractTriangleOnePair(t *testing.T) {
	// Triangle with vertices 0,1,2; match (0,1). New graph: 2 vertices, the
	// two edges {0,2} and {1,2} merge into one of weight 2, self-loop 1.
	g := graph.MustBuild(1, 3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 1}})
	m := []int64{1, 0, matching.Unmatched}
	for name, kern := range kernels {
		ng, mapping := kern(1, g, m)
		if err := ng.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ng.NumVertices() != 2 || ng.NumEdges() != 1 {
			t.Fatalf("%s: |V|=%d |E|=%d, want 2/1", name, ng.NumVertices(), ng.NumEdges())
		}
		merged := mapping[0]
		if ng.Self[merged] != 1 {
			t.Fatalf("%s: merged self = %d, want 1", name, ng.Self[merged])
		}
		es := ng.Edges()
		if len(es) != 1 || es[0].W != 2 {
			t.Fatalf("%s: edges %v, want single weight-2 edge", name, es)
		}
	}
}

func TestContractPreservesTotalWeightAndDegrees(t *testing.T) {
	g, _, err := gen.LJSim(4, gen.DefaultLJSim(3000, 13))
	if err != nil {
		t.Fatal(err)
	}
	deg := g.WeightedDegrees(4)
	scores := make([]float64, len(g.V))
	scoring.Score(exec.Background(4), scoring.Modularity{}, g, deg, g.TotalWeight(4), scores, nil, 0, nil)
	res := matching.Worklist(exec.Background(4), g, scores, nil)
	for name, kern := range kernels {
		ng, mapping := kern(4, g, res.Match)
		if err := ng.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := ng.TotalWeight(4), g.TotalWeight(4); got != want {
			t.Fatalf("%s: total weight %d, want %d", name, got, want)
		}
		// Volume conservation: each new vertex's weighted degree equals the
		// sum of its members' old weighted degrees.
		ndeg := ng.WeightedDegrees(4)
		wantDeg := make([]int64, ng.NumVertices())
		for x := int64(0); x < g.NumVertices(); x++ {
			wantDeg[mapping[x]] += deg[x]
		}
		for c := range wantDeg {
			if ndeg[c] != wantDeg[c] {
				t.Fatalf("%s: degree of community %d is %d, want %d", name, c, ndeg[c], wantDeg[c])
			}
		}
	}
}

func TestKernelsProduceIdenticalGraphs(t *testing.T) {
	r := par.NewRNG(3)
	for trial := 0; trial < 10; trial++ {
		n := int64(30 + r.Intn(100))
		var edges []graph.Edge
		for i := 0; i < int(n)*4; i++ {
			edges = append(edges, graph.Edge{U: r.Int63n(n), V: r.Int63n(n), W: r.Int63n(5) + 1})
		}
		g := graph.MustBuild(2, n, edges)
		// Random valid matching over stored edges.
		m := noMatch(n)
		g.ForEachEdge(func(_ int64, u, v, _ int64) {
			if m[u] == matching.Unmatched && m[v] == matching.Unmatched && r.Float64() < 0.5 {
				m[u], m[v] = v, u
			}
		})
		var ref *graph.Graph
		var refName string
		for name, kern := range kernels {
			ng, _ := kern(3, g, m)
			if err := ng.Validate(); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if ref == nil {
				ref, refName = ng, name
				continue
			}
			assertSameContraction(t, refName, ref, name, ng)
		}
	}
}

func assertSameContraction(t *testing.T, nameA string, a *graph.Graph, nameB string, b *graph.Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("%s vs %s: shape %d/%d vs %d/%d", nameA, nameB,
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	for x := int64(0); x < a.NumVertices(); x++ {
		if a.Self[x] != b.Self[x] {
			t.Fatalf("%s vs %s: Self[%d] %d vs %d", nameA, nameB, x, a.Self[x], b.Self[x])
		}
	}
	ae, be := a.Edges(), b.Edges()
	sortEdges(ae)
	sortEdges(be)
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("%s vs %s: edge %d: %v vs %v", nameA, nameB, i, ae[i], be[i])
		}
	}
}

func sortEdges(es []graph.Edge) {
	par.Sort(1, es, func(a, b graph.Edge) bool {
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
}

func TestContractNoMatchingIsIsomorphic(t *testing.T) {
	g, _, err := gen.SBM(2, gen.SBMConfig{Blocks: []int64{40, 40}, PIn: 0.3, POut: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for name, kern := range kernels {
		ng, mapping := kern(2, g, noMatch(g.NumVertices()))
		if ng.NumVertices() != g.NumVertices() || ng.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: shape changed with empty matching", name)
		}
		for x, c := range mapping {
			if c != int64(x) {
				t.Fatalf("%s: mapping[%d] = %d", name, x, c)
			}
		}
		assertSameContraction(t, "original", g, name, ng)
	}
}

func TestContractProperty(t *testing.T) {
	// Weight conservation + validity for arbitrary graphs and matchings.
	f := func(raw []uint16, pairsRaw []uint16, pRaw uint8) bool {
		p := int(pRaw%4) + 1
		const n = 24
		var edges []graph.Edge
		for i := 0; i+2 < len(raw); i += 3 {
			edges = append(edges, graph.Edge{
				U: int64(raw[i] % n), V: int64(raw[i+1] % n), W: int64(raw[i+2]%6) + 1})
		}
		g, err := graph.Build(p, n, edges)
		if err != nil {
			return false
		}
		m := noMatch(n)
		for i := 0; i+1 < len(pairsRaw); i += 2 {
			a, b := int64(pairsRaw[i]%n), int64(pairsRaw[i+1]%n)
			if a != b && m[a] == matching.Unmatched && m[b] == matching.Unmatched {
				m[a], m[b] = b, a
			}
		}
		want := g.TotalWeight(p)
		for _, kern := range kernels {
			ng, mapping := kern(p, g, m)
			if ng.Validate() != nil || ng.TotalWeight(p) != want {
				return false
			}
			for x := int64(0); x < n; x++ {
				if mm := m[x]; mm != matching.Unmatched && mapping[x] != mapping[mm] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCompactClosesBucketGaps(t *testing.T) {
	// Duplicate accumulation shortens buckets in place, so a bucket
	// contraction leaves gaps between them; Compact must close them without
	// changing the graph.
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(1000, 21))
	if err != nil {
		t.Fatal(err)
	}
	deg := g.WeightedDegrees(2)
	scores := make([]float64, len(g.V))
	scoring.Score(exec.Background(2), scoring.Modularity{}, g, deg, g.TotalWeight(2), scores, nil, 0, nil)
	res := matching.Worklist(exec.Background(2), g, scores, nil)
	ng, _ := Bucket(exec.Background(2), g, res.Match, nil, nil, nil)
	if !hasGaps(ng) {
		t.Fatal("the contraction left no gaps; the case is not exercised")
	}
	w := ng.TotalWeight(2)
	edges := ng.Edges()
	graph.Compact(2, ng)
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	if hasGaps(ng) {
		t.Fatal("Compact left gaps")
	}
	if ng.TotalWeight(2) != w {
		t.Fatal("Compact changed the total weight")
	}
	after := ng.Edges()
	sortEdges(edges)
	sortEdges(after)
	for i := range edges {
		if edges[i] != after[i] {
			t.Fatalf("edge %d changed: %v vs %v", i, edges[i], after[i])
		}
	}
}

// hasGaps reports whether some bucket of g does not end where the next
// begins.
func hasGaps(g *graph.Graph) bool {
	for x := int64(1); x < g.NumVertices(); x++ {
		if g.Start[x] != g.End[x-1] {
			return true
		}
	}
	return false
}
