package graph

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/par"
)

func TestStoredOrderParityHash(t *testing.T) {
	cases := []struct {
		i, j, first, second int64
	}{
		{0, 2, 0, 2},   // both even: smaller first
		{4, 2, 2, 4},   // both even, reversed input
		{1, 3, 1, 3},   // both odd: smaller first
		{1, 2, 2, 1},   // mixed parity: larger first
		{2, 1, 2, 1},   // mixed parity, reversed input
		{7, 10, 10, 7}, // mixed parity
	}
	for _, c := range cases {
		f, s := StoredOrder(c.i, c.j)
		if f != c.first || s != c.second {
			t.Errorf("StoredOrder(%d,%d) = (%d,%d), want (%d,%d)", c.i, c.j, f, s, c.first, c.second)
		}
	}
}

func TestStoredOrderSymmetric(t *testing.T) {
	f := func(iRaw, jRaw uint16) bool {
		i, j := int64(iRaw), int64(jRaw)
		if i == j {
			return true
		}
		f1, s1 := StoredOrder(i, j)
		f2, s2 := StoredOrder(j, i)
		// Orientation-independent, and returns the same endpoints.
		return f1 == f2 && s1 == s2 &&
			((f1 == i && s1 == j) || (f1 == j && s1 == i))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// storedOrderSpec is the parity hash written as its definition reads, with
// the two coin-flip branches StoredOrder computes from masks.
func storedOrderSpec(i, j int64) (first, second int64) {
	if (i^j)&1 == 0 {
		if i < j {
			return i, j
		}
		return j, i
	}
	if i > j {
		return i, j
	}
	return j, i
}

// TestStoredOrderMatchesSpec checks the branch-free StoredOrder against the
// branchy definition over random ids across [0, 2^62), adjacent ids,
// equal-parity pairs and the ends of the range, in both argument orders.
// The seq oracle calls StoredOrder too, so its parity tests cannot catch a
// wrong orientation; this test can.
func TestStoredOrderMatchesSpec(t *testing.T) {
	const top = int64(1) << 62
	rng := rand.New(rand.NewPCG(20, 62))
	check := func(i, j int64) {
		t.Helper()
		if i == j {
			return
		}
		for _, ab := range [2][2]int64{{i, j}, {j, i}} {
			f, s := StoredOrder(ab[0], ab[1])
			wf, ws := storedOrderSpec(ab[0], ab[1])
			if f != wf || s != ws {
				t.Fatalf("StoredOrder(%d,%d) = (%d,%d), want (%d,%d)", ab[0], ab[1], f, s, wf, ws)
			}
		}
	}
	for range 50000 {
		i := rng.Int64N(top)
		check(i, rng.Int64N(top))                         // random pair, any parity
		check(i, (rng.Int64N(top)&^1)|(i&1))              // equal parity
		check(i, (i+1)%top)                               // adjacent ids
		check(i, rng.Int64N(1024))                        // far apart: small and large
		check(rng.Int64N(64), rng.Int64N(64))             // dense small ids
		check(top-1-rng.Int64N(64), top-1-rng.Int64N(64)) // dense near the top
	}
	for _, p := range [][2]int64{{0, 1}, {0, 2}, {0, top - 1}, {0, top - 2}, {1, top - 1}, {top - 2, top - 1}} {
		check(p[0], p[1])
	}
}

func TestStoredOrderSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StoredOrder(3, 3)
}

func TestBuildEmpty(t *testing.T) {
	g, err := Build(2, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 || g.NumEdges() != 0 {
		t.Fatalf("got |V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildAccumulatesDuplicates(t *testing.T) {
	edges := []Edge{
		{0, 1, 1}, {1, 0, 2}, {0, 1, 3}, // same undirected edge three times
		{2, 3, 1},
		{4, 4, 5}, {4, 4, 1}, // self-loops accumulate in Self
	}
	g, err := Build(3, 5, edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("|E| = %d, want 2", g.NumEdges())
	}
	if g.Self[4] != 6 {
		t.Fatalf("Self[4] = %d, want 6", g.Self[4])
	}
	var found01 int64
	g.ForEachEdge(func(_ int64, u, v, w int64) {
		if (u == 0 && v == 1) || (u == 1 && v == 0) {
			found01 = w
		}
	})
	if found01 != 6 {
		t.Fatalf("weight of {0,1} = %d, want 6", found01)
	}
	if g.TotalWeight(2) != 6+1+6 {
		t.Fatalf("TotalWeight = %d, want 13", g.TotalWeight(2))
	}
}

func TestBuildRejectsBadEdges(t *testing.T) {
	for _, bad := range [][]Edge{
		{{0, 5, 1}},  // endpoint out of range
		{{-1, 0, 1}}, // negative endpoint
		{{0, 1, 0}},  // zero weight
		{{0, 1, -2}}, // negative weight
	} {
		if _, err := Build(2, 5, bad); err == nil {
			t.Fatalf("Build accepted bad edges %v", bad)
		}
	}
}

// TestBuildRejectsWeightOverflow checks that Build bounds the summed input
// weight at MaxTotalWeight: duplicate edges and self-loops used to
// accumulate with no check and wrap negative. The spread case keeps every
// chunk under the bound at 4 workers, so only the cross-chunk total trips.
func TestBuildRejectsWeightOverflow(t *testing.T) {
	spread := make([]Edge, 4096)
	for i := range spread {
		spread[i] = Edge{int64(i % 64), int64(64 + i%64), MaxTotalWeight / 4000}
	}
	for _, tc := range []struct {
		name  string
		edges []Edge
		ok    bool
	}{
		{"duplicate edges", []Edge{{0, 1, math.MaxInt64}, {0, 1, math.MaxInt64}}, false},
		{"self-loops", []Edge{{2, 2, math.MaxInt64}, {2, 2, math.MaxInt64}}, false},
		{"one edge past the bound", []Edge{{0, 1, MaxTotalWeight + 1}}, false},
		{"edge and self-loop past the bound", []Edge{{0, 1, MaxTotalWeight}, {2, 2, 1}}, false},
		{"spread across chunks", spread, false},
		{"exactly the bound", []Edge{{0, 1, MaxTotalWeight - 3}, {1, 0, 1}, {2, 2, 2}}, true},
	} {
		for _, p := range []int{1, 4} {
			g, err := Build(p, 128, slices.Clone(tc.edges))
			if !tc.ok {
				if !errors.Is(err, ErrWeightOverflow) {
					t.Errorf("%s, p=%d: err = %v, want ErrWeightOverflow", tc.name, p, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s, p=%d: %v", tc.name, p, err)
			}
			if err := g.Validate(); err != nil || g.TotalWeight(p) != MaxTotalWeight {
				t.Fatalf("%s, p=%d: total %d (validate: %v)", tc.name, p, g.TotalWeight(p), err)
			}
		}
	}
}

func TestBuildParityPlacement(t *testing.T) {
	// Edge {1,2}: mixed parity, so larger endpoint 2 owns the bucket.
	g := MustBuild(1, 3, []Edge{{1, 2, 7}})
	lo, hi := g.Bucket(2)
	if hi-lo != 1 || g.V[lo] != 1 {
		t.Fatalf("bucket of 2 is [%d,%d), want the single neighbor 1", lo, hi)
	}
	if lo2, hi2 := g.Bucket(1); hi2 != lo2 {
		t.Fatalf("vertex 1 should have empty bucket, got [%d,%d)", lo2, hi2)
	}
}

func TestBuildMatchesSequentialAcrossWorkers(t *testing.T) {
	r := par.NewRNG(99)
	const n = 200
	var edges []Edge
	for i := 0; i < 3000; i++ {
		edges = append(edges, Edge{r.Int63n(n), r.Int63n(n), r.Int63n(4) + 1})
	}
	mk := func(p int) *Graph {
		in := append([]Edge(nil), edges...)
		return MustBuild(p, n, in)
	}
	want := mk(1)
	if err := want.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 4, 9} {
		got := mk(p)
		if err := got.Validate(); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if got.NumEdges() != want.NumEdges() {
			t.Fatalf("p=%d: |E| %d != %d", p, got.NumEdges(), want.NumEdges())
		}
		if got.TotalWeight(1) != want.TotalWeight(1) {
			t.Fatalf("p=%d: weight %d != %d", p, got.TotalWeight(1), want.TotalWeight(1))
		}
		we := want.Edges()
		ge := got.Edges()
		for i := range we {
			if we[i] != ge[i] {
				t.Fatalf("p=%d: edge %d: %v != %v", p, i, ge[i], we[i])
			}
		}
	}
}

func TestBuildProperty(t *testing.T) {
	// Total weight is conserved and Validate passes for arbitrary inputs.
	f := func(raw []uint16, pRaw uint8) bool {
		p := int(pRaw%4) + 1
		const n = 50
		var edges []Edge
		var want int64
		for i := 0; i+2 < len(raw); i += 3 {
			w := int64(raw[i+2]%9) + 1
			edges = append(edges, Edge{int64(raw[i] % n), int64(raw[i+1] % n), w})
			want += w
		}
		g, err := Build(p, n, edges)
		if err != nil {
			return false
		}
		return g.Validate() == nil && g.TotalWeight(p) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedDegrees(t *testing.T) {
	// Triangle 0-1-2 with weights 1,2,3 and a self-loop of 4 at vertex 0.
	g := MustBuild(2, 3, []Edge{{0, 1, 1}, {1, 2, 2}, {0, 2, 3}, {0, 0, 4}})
	d := g.WeightedDegrees(3)
	want := []int64{1 + 3 + 8, 1 + 2, 2 + 3}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("d[%d] = %d, want %d", i, d[i], want[i])
		}
	}
	var sum int64
	for _, x := range d {
		sum += x
	}
	if sum != 2*g.TotalWeight(1) {
		t.Fatalf("degree sum %d != 2·weight %d", sum, 2*g.TotalWeight(1))
	}
}

func TestWeightedDegreesProperty(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		p := int(pRaw%4) + 1
		const n = 30
		var edges []Edge
		for i := 0; i+2 < len(raw); i += 3 {
			edges = append(edges, Edge{int64(raw[i] % n), int64(raw[i+1] % n), int64(raw[i+2]%5) + 1})
		}
		g, err := Build(p, n, edges)
		if err != nil {
			return false
		}
		d := g.WeightedDegrees(p)
		var sum int64
		for _, x := range d {
			sum += x
		}
		return sum == 2*g.TotalWeight(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFromAdjacency(t *testing.T) {
	g, err := FromAdjacency([][]int64{
		{1, 2},
		{0, 2},
		{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("|E| = %d, want 3", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Listing both directions must not double the weights.
	g.ForEachEdge(func(_ int64, _, _, w int64) {
		if w != 1 {
			t.Fatalf("edge weight %d, want 1", w)
		}
	})
}

func TestCloneIndependence(t *testing.T) {
	g := MustBuild(1, 3, []Edge{{0, 1, 1}, {1, 2, 2}})
	c := g.Clone()
	c.W[0] = 99
	c.Self[0] = 7
	if g.W[0] == 99 || g.Self[0] == 7 {
		t.Fatal("Clone shares storage with original")
	}
	if err := c.Validate(); err == nil {
		// c is still valid (weight 99 is positive); just confirm Validate runs.
		_ = err
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	fresh := func() *Graph {
		return MustBuild(1, 4, []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 1}})
	}
	corrupt := []func(*Graph){
		func(g *Graph) { g.W[0] = 0 },
		func(g *Graph) { g.W[0] = -1 },
		func(g *Graph) { g.Self[1] = -3 },
		func(g *Graph) { g.Start[0], g.End[0] = 1, 0 },
		func(g *Graph) { x := findOwner(g); g.V[g.Start[x]] = x }, // self-loop
		func(g *Graph) { g.SetCounts(g.NumVertices(), g.NumEdges()+1) },
	}
	for i, mutate := range corrupt {
		g := fresh()
		if err := g.Validate(); err != nil {
			t.Fatalf("fresh graph invalid: %v", err)
		}
		mutate(g)
		if err := g.Validate(); err == nil {
			t.Fatalf("corruption %d not caught", i)
		}
	}
}

// TestValidateDistinctNotSorted pins the bucket invariant contraction
// relies on: neighbors must be distinct, not sorted.
func TestValidateDistinctNotSorted(t *testing.T) {
	bucket := func(vs ...int64) *Graph {
		g := NewEmpty(6)
		for _, v := range vs {
			g.V = append(g.V, v)
			g.W = append(g.W, 1)
		}
		g.End[0] = int64(len(vs))
		g.SetCounts(6, int64(len(vs)))
		return g
	}
	if err := bucket(4, 2).Validate(); err != nil {
		t.Fatalf("unsorted bucket with distinct neighbors rejected: %v", err)
	}
	if err := bucket(2, 4, 2).Validate(); err == nil {
		t.Fatal("non-adjacent duplicate neighbor not caught")
	}
}

// findOwner returns some vertex with a non-empty bucket.
func findOwner(g *Graph) int64 {
	for x := int64(0); x < g.NumVertices(); x++ {
		if g.End[x] > g.Start[x] {
			return x
		}
	}
	panic("no edges")
}

func TestCompactPreservesGraph(t *testing.T) {
	r := par.NewRNG(5)
	const n = 100
	var edges []Edge
	for i := 0; i < 500; i++ {
		edges = append(edges, Edge{r.Int63n(n), r.Int63n(n), 1})
	}
	g := MustBuild(2, n, edges)
	before := g.Edges()
	wBefore := g.TotalWeight(1)
	Compact(3, g)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.TotalWeight(1) != wBefore {
		t.Fatalf("weight changed: %d != %d", g.TotalWeight(1), wBefore)
	}
	after := g.Edges()
	if len(before) != len(after) {
		t.Fatalf("edge count changed: %d != %d", len(before), len(after))
	}
	// Buckets must now be contiguous in vertex order.
	var pos int64
	for x := int64(0); x < g.NumVertices(); x++ {
		if g.Start[x] != pos {
			t.Fatalf("vertex %d bucket starts at %d, want %d", x, g.Start[x], pos)
		}
		pos = g.End[x]
	}
}

func TestMaxBucketLen(t *testing.T) {
	g := MustBuild(1, 6, []Edge{{0, 2, 1}, {0, 4, 1}, {1, 3, 1}})
	// {0,2} and {0,4} are even-even → bucket of 0 has 2 edges.
	if got := g.MaxBucketLen(); got != 2 {
		t.Fatalf("MaxBucketLen = %d, want 2", got)
	}
}

func TestToCSRSymmetric(t *testing.T) {
	g := MustBuild(2, 4, []Edge{{0, 1, 1}, {1, 2, 2}, {2, 3, 3}, {0, 3, 4}, {1, 1, 5}})
	c := ToCSR(3, g)
	if c.NumVertices() != 4 {
		t.Fatalf("CSR |V| = %d", c.NumVertices())
	}
	if c.Self[1] != 5 {
		t.Fatalf("CSR Self[1] = %d, want 5", c.Self[1])
	}
	// Every stored edge appears in both rows with the same weight.
	weight := func(x, y int64) int64 {
		adj, wgt := c.Neighbors(x)
		for i, v := range adj {
			if v == y {
				return wgt[i]
			}
		}
		return -1
	}
	for _, e := range g.Edges() {
		if weight(e.U, e.V) != e.W || weight(e.V, e.U) != e.W {
			t.Fatalf("edge %v not symmetric in CSR", e)
		}
	}
	var totalDeg int64
	for x := int64(0); x < 4; x++ {
		totalDeg += c.Degree(x)
	}
	if totalDeg != 2*g.NumEdges() {
		t.Fatalf("CSR entries %d != 2|E| = %d", totalDeg, 2*g.NumEdges())
	}
}

// TestToCSRSortedCheckAcrossSplitBuckets swaps each adjacent pair of every
// bucket of a complete graph in turn and requires the CSR build to report
// the graph unsorted at every thread count, including when the pair
// straddles a bucket split between two ranges.
func TestToCSRSortedCheckAcrossSplitBuckets(t *testing.T) {
	const n = 32
	var edges []Edge
	for u := int64(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{u, v, 1})
		}
	}
	g := MustBuild(1, n, edges)
	c := &CSR{}
	splits := 0
	for _, p := range []int{1, 2, 3, 8} {
		if _, sorted := toCSRInto(p, g, c); !sorted {
			t.Fatalf("p=%d: a Build graph reported unsorted", p)
		}
		if c.part.Workers() > 1 && p > 1 {
			for j := 0; j < c.part.Workers(); j++ {
				if sp := c.part.Span(j); sp.LoV < sp.HiV && sp.LoE > g.Start[sp.LoV] {
					splits++
				}
			}
		}
		for x := 0; x < n; x++ {
			for e := g.Start[x] + 1; e < g.End[x]; e++ {
				g.V[e-1], g.V[e] = g.V[e], g.V[e-1]
				if _, sorted := toCSRInto(p, g, c); sorted {
					t.Fatalf("p=%d: bucket %d swapped at edge %d reported sorted", p, x, e)
				}
				g.V[e-1], g.V[e] = g.V[e], g.V[e-1]
			}
		}
	}
	if splits == 0 {
		t.Fatal("no range split a bucket; the straddling case is not exercised")
	}
}

func TestComponentsSingletons(t *testing.T) {
	g := NewEmpty(4)
	comp, k := Components(2, g)
	if k != 4 {
		t.Fatalf("components = %d, want 4", k)
	}
	for x, c := range comp {
		if c != int64(x) {
			t.Fatalf("comp[%d] = %d", x, c)
		}
	}
}

func TestComponentsPath(t *testing.T) {
	// A long path stresses the propagation/jumping convergence.
	const n = 2000
	var edges []Edge
	for i := int64(0); i < n-1; i++ {
		edges = append(edges, Edge{i, i + 1, 1})
	}
	g := MustBuild(4, n, edges)
	comp, k := Components(4, g)
	if k != 1 {
		t.Fatalf("components = %d, want 1", k)
	}
	for x, c := range comp {
		if c != 0 {
			t.Fatalf("comp[%d] = %d, want 0", x, c)
		}
	}
}

func TestComponentsTwoCliquesAndIsolate(t *testing.T) {
	var edges []Edge
	for i := int64(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, Edge{i, j, 1})
			edges = append(edges, Edge{5 + i, 5 + j, 1})
		}
	}
	g := MustBuild(2, 11, edges) // vertex 10 isolated
	comp, k := Components(2, g)
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if comp[10] != 10 {
		t.Fatalf("isolate labelled %d", comp[10])
	}
	for i := 0; i < 5; i++ {
		if comp[i] != 0 || comp[5+i] != 5 {
			t.Fatalf("comp[%d]=%d comp[%d]=%d", i, comp[i], 5+i, comp[5+i])
		}
	}
}

func TestComponentsProperty(t *testing.T) {
	// Labels constant within an edge and count matches a sequential BFS.
	f := func(raw []uint16, pRaw uint8) bool {
		p := int(pRaw%4) + 1
		const n = 40
		var edges []Edge
		for i := 0; i+1 < len(raw); i += 2 {
			edges = append(edges, Edge{int64(raw[i] % n), int64(raw[i+1] % n), 1})
		}
		g, err := Build(p, n, edges)
		if err != nil {
			return false
		}
		comp, k := Components(p, g)
		for _, e := range g.Edges() {
			if comp[e.U] != comp[e.V] {
				return false
			}
		}
		return k == bfsComponentCount(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// bfsComponentCount is a trivially correct sequential reference.
func bfsComponentCount(g *Graph) int64 {
	n := g.NumVertices()
	c := ToCSR(1, g)
	seen := make([]bool, n)
	var k int64
	var queue []int64
	for s := int64(0); s < n; s++ {
		if seen[s] {
			continue
		}
		k++
		seen[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			x := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			adj, _ := c.Neighbors(x)
			for _, y := range adj {
				if !seen[y] {
					seen[y] = true
					queue = append(queue, y)
				}
			}
		}
	}
	return k
}

func TestLargestComponent(t *testing.T) {
	// Component A: clique on {0..4} (10 edges). Component B: edge {5,6}.
	var edges []Edge
	for i := int64(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			edges = append(edges, Edge{i, j, 1})
		}
	}
	edges = append(edges, Edge{5, 6, 1})
	g := MustBuild(2, 8, edges) // vertex 7 isolated
	g.Self[3] = 9               // self-loop carried into the subgraph
	sub, orig := LargestComponent(2, g)
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
	if sub.NumVertices() != 5 || sub.NumEdges() != 10 {
		t.Fatalf("largest component |V|=%d |E|=%d, want 5/10", sub.NumVertices(), sub.NumEdges())
	}
	if len(orig) != 5 {
		t.Fatalf("origID len %d", len(orig))
	}
	for i, o := range orig {
		if o != int64(i) {
			t.Fatalf("origID[%d] = %d", i, o)
		}
	}
	if sub.Self[3] != 9 {
		t.Fatalf("self-loop not carried: Self[3] = %d", sub.Self[3])
	}
}

func TestLargestComponentEmpty(t *testing.T) {
	sub, orig := LargestComponent(1, NewEmpty(0))
	if sub.NumVertices() != 0 || len(orig) != 0 {
		t.Fatal("empty graph mishandled")
	}
}

// naiveBuild is a trivially correct map-based reference for Build.
func naiveBuild(n int64, edges []Edge) (self map[int64]int64, weight map[[2]int64]int64) {
	self = map[int64]int64{}
	weight = map[[2]int64]int64{}
	for _, e := range edges {
		if e.U == e.V {
			self[e.U] += e.W
			continue
		}
		a, b := e.U, e.V
		if a > b {
			a, b = b, a
		}
		weight[[2]int64{a, b}] += e.W
	}
	return self, weight
}

// TestBuildRoundsMatchNaive builds four independent random edge lists in a
// row and checks each graph edge by edge and self-loop by self-loop against
// the map-based reference.
func TestBuildRoundsMatchNaive(t *testing.T) {
	r := par.NewRNG(5)
	n := int64(50)
	for round := 0; round < 4; round++ {
		var edges []Edge
		for i := 0; i < 200; i++ {
			edges = append(edges, Edge{r.Int63n(n), r.Int63n(n), r.Int63n(5) + 1})
		}
		wantSelf, wantW := naiveBuild(n, append([]Edge(nil), edges...))
		g, err := Build(2, n, edges)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if int64(len(wantW)) != g.NumEdges() {
			t.Fatalf("round %d: %d edges, naive %d", round, g.NumEdges(), len(wantW))
		}
		g.ForEachEdge(func(_ int64, u, v, w int64) {
			if wantW[edgeKey(u, v)] != w {
				t.Fatalf("round %d: edge {%d,%d} weight %d, naive %d", round, u, v, w, wantW[edgeKey(u, v)])
			}
		})
		for x := int64(0); x < n; x++ {
			if g.Self[x] != wantSelf[x] {
				t.Fatalf("round %d: Self[%d] = %d, naive %d", round, x, g.Self[x], wantSelf[x])
			}
		}
	}
}

func TestBuildMatchesNaiveReference(t *testing.T) {
	r := par.NewRNG(77)
	for trial := 0; trial < 15; trial++ {
		n := int64(10 + r.Intn(100))
		var edges []Edge
		for i := 0; i < int(n)*4; i++ {
			edges = append(edges, Edge{r.Int63n(n), r.Int63n(n), r.Int63n(7) + 1})
		}
		wantSelf, wantW := naiveBuild(n, append([]Edge(nil), edges...))
		g := MustBuild(3, n, edges)
		if int64(len(wantW)) != g.NumEdges() {
			t.Fatalf("trial %d: %d unique edges, naive %d", trial, g.NumEdges(), len(wantW))
		}
		g.ForEachEdge(func(_ int64, u, v, w int64) {
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if wantW[[2]int64{a, b}] != w {
				t.Fatalf("trial %d: edge {%d,%d} weight %d, naive %d", trial, u, v, w, wantW[[2]int64{a, b}])
			}
		})
		for x := int64(0); x < n; x++ {
			if g.Self[x] != wantSelf[x] {
				t.Fatalf("trial %d: Self[%d] = %d, naive %d", trial, x, g.Self[x], wantSelf[x])
			}
		}
	}
}

// TestValidateRejectsHostileBuckets builds bucket layouts by hand, each
// breaking one invariant the implied-owner layout depends on, and requires
// Validate to reject every one of them while accepting the control.
func TestValidateRejectsHostileBuckets(t *testing.T) {
	// hand lays out n vertices over the neighbor array v (unit weights);
	// each span {x, lo, hi} is vertex x's bucket.
	hand := func(n int64, v []int64, spans ...[3]int64) *Graph {
		g := NewEmpty(n)
		g.V = v
		g.W = make([]int64, len(v))
		for i := range g.W {
			g.W[i] = 1
		}
		var m int64
		for _, s := range spans {
			g.Start[s[0]], g.End[s[0]] = s[1], s[2]
			m += s[2] - s[1]
		}
		g.SetCounts(n, m)
		return g
	}
	if err := hand(6, []int64{2, 4, 4}, [3]int64{0, 0, 2}, [3]int64{2, 2, 3}).Validate(); err != nil {
		t.Fatalf("control graph rejected: %v", err)
	}
	for _, tc := range []struct {
		name string
		g    *Graph
	}{
		// {1, 2} has mixed parity, so it belongs in the bucket of 2.
		{"misoriented", hand(4, []int64{2}, [3]int64{1, 0, 1})},
		{"neighbor out of range", hand(4, []int64{6}, [3]int64{0, 0, 1})},
		{"negative neighbor", hand(4, []int64{-2}, [3]int64{0, 0, 1})},
		{"repeated neighbor", hand(6, []int64{2, 4, 2}, [3]int64{0, 0, 3})},
		{"overlapping buckets", hand(6, []int64{2, 4}, [3]int64{0, 0, 2}, [3]int64{2, 1, 2})},
		{"bucket past the arrays", hand(6, []int64{2}, [3]int64{0, 0, 2})},
	} {
		if err := tc.g.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the graph", tc.name)
		}
	}
}

// TestEdgesFollowBuckets checks Edges against a reference built from a
// bucket walk, with each bucket's owner as the first endpoint, on layouts
// whose buckets are not back to back: a contracted graph with gaps and
// buckets in descending order, and an overlay-packed base with a bucket
// relocated to its tail.
func TestEdgesFollowBuckets(t *testing.T) {
	walk := func(g *Graph) []Edge {
		var out []Edge
		for x := int64(0); x < g.NumVertices(); x++ {
			lo, hi := g.Bucket(x)
			for e := lo; e < hi; e++ {
				out = append(out, Edge{x, g.V[e], g.W[e]})
			}
		}
		return out
	}
	r := par.NewRNG(23)
	const n = 64
	gapped := compactTestBase(r, n, true)
	o := NewOverlay(2, compactTestBase(r, n, false))
	// The first compaction repacks; the second grows bucket 0 by edges to
	// isolated even vertices, which moves it to the tail and leaves its old
	// slot as a gap.
	for step, nbrs := range [][]int64{{3, 5, 7}, {40, 42, 44, 46}} {
		d := &Delta{Version: uint64(step + 1)}
		for _, v := range nbrs {
			d.Insert(0, v, 1)
		}
		if err := o.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	packed := o.Base()
	if o.Stats().Repacks != 1 || int64(len(packed.V)) == packed.NumEdges() {
		t.Fatalf("overlay base is not a patched packed layout (%d repacks, %d slots for %d edges)",
			o.Stats().Repacks, len(packed.V), packed.NumEdges())
	}
	for name, g := range map[string]*Graph{"gapped": gapped, "packed": packed} {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, want := g.Edges(), walk(g)
		if int64(len(got)) != g.NumEdges() || !slices.Equal(got, want) {
			t.Fatalf("%s: Edges() = %v, bucket walk %v", name, got, want)
		}
	}
}
