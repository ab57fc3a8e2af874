package graph_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/par"
)

// sortBuildReference is the builder as it was specified before the counting
// placement: orient by the parity hash, sort by (U, V), accumulate
// duplicates, fold self-loops, cut buckets.
func sortBuildReference(n int64, in []graph.Edge) *graph.Graph {
	es := make([]graph.Edge, 0, len(in))
	self := make([]int64, n)
	for _, e := range in {
		if e.U == e.V {
			self[e.U] += e.W
			continue
		}
		f, s := graph.StoredOrder(e.U, e.V)
		es = append(es, graph.Edge{U: f, V: s, W: e.W})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	g := graph.NewEmpty(n)
	copy(g.Self, self)
	for i, e := range es {
		if i > 0 && es[i-1].U == e.U && es[i-1].V == e.V {
			g.W[len(g.W)-1] += e.W
			continue
		}
		if len(g.V) == 0 || es[i-1].U != e.U {
			g.Start[e.U] = int64(len(g.V))
		}
		g.V, g.W = append(g.V, e.V), append(g.W, e.W)
		g.End[e.U] = int64(len(g.V))
	}
	g.SetCounts(n, int64(len(g.V)))
	return g
}

// sameGraph reports the first difference between two bucketed graphs in
// V/W/Self and the bounds of every non-empty bucket.
func sameGraph(got, want *graph.Graph) error {
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("size (%d,%d), want (%d,%d)", got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	m := want.NumEdges()
	for _, a := range []struct {
		name      string
		got, want []int64
	}{{"V", got.V[:m], want.V[:m]}, {"W", got.W[:m], want.W[:m]}, {"Self", got.Self, want.Self}} {
		if !slices.Equal(a.got, a.want) {
			return fmt.Errorf("%s differs", a.name)
		}
	}
	for x := int64(0); x < want.NumVertices(); x++ {
		if want.End[x] > want.Start[x] && (got.Start[x] != want.Start[x] || got.End[x] != want.End[x]) {
			return fmt.Errorf("bucket %d = [%d,%d), want [%d,%d)", x, got.Start[x], got.End[x], want.Start[x], want.End[x])
		}
	}
	return nil
}

// TestBuildMatchesSortReference checks the counting-placement builder
// against the sort-based reference at several worker counts, on inputs
// that reach every stripe configuration: both orientations, duplicates
// (same and flipped orientation), self-loops, isolated vertices, one hub
// holding most edges, and a vertex space far larger than the edge list.
func TestBuildMatchesSortReference(t *testing.T) {
	rng := par.NewRNG(19)
	random := func(n int64, m int, hub bool) []graph.Edge {
		es := make([]graph.Edge, m)
		for i := range es {
			u, v := int64(rng.Uint64()%uint64(n)), int64(rng.Uint64()%uint64(n))
			if hub && i%4 != 0 {
				u = 3
			}
			es[i] = graph.Edge{U: u, V: v, W: 1 + int64(rng.Uint64()%5)}
		}
		// Repeat a tenth of the edges, flipped, so duplicate groups span
		// both orientations.
		for i := 0; i < m/10; i++ {
			e := es[int(rng.Uint64()%uint64(m))]
			es = append(es, graph.Edge{U: e.V, V: e.U, W: e.W})
		}
		return es
	}
	cases := []struct {
		name string
		n    int64
		es   []graph.Edge
	}{
		{"tiny", 5, []graph.Edge{{4, 1, 2}, {1, 4, 3}, {0, 0, 7}, {2, 3, 1}, {3, 2, 1}, {0, 3, 5}}},
		{"random", 300, random(300, 6000, false)},
		{"isolated", 5000, random(400, 3000, false)},
		{"hub", 200, random(200, 20000, true)},
		{"sparse", 200000, random(200000, 50, false)},
		{"selfloops", 64, random(8, 4000, false)},
	}
	for _, tc := range cases {
		want := sortBuildReference(tc.n, tc.es)
		for _, p := range []int{1, 2, 3, 8} {
			g, err := graph.Build(p, tc.n, slices.Clone(tc.es))
			if err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
			if err := sameGraph(g, want); err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
			if err := g.Validate(); err != nil {
				t.Fatalf("%s p=%d: %v", tc.name, p, err)
			}
		}
	}
}

// buildExtraction is the shard extraction InducedFromCSR replaced: gather
// the internal edges (from the lower endpoint's row) and the cut, then run
// the sort-based builder over the local edge list and copy the self-loops.
func buildExtraction(c *graph.CSR, lo, hi int64) (*graph.Graph, []graph.Edge) {
	var local, cut []graph.Edge
	for x := lo; x < hi; x++ {
		adj, wgt := c.Neighbors(x)
		for i, v := range adj {
			switch {
			case v <= x:
			case v < hi:
				local = append(local, graph.Edge{U: x - lo, V: v - lo, W: wgt[i]})
			default:
				cut = append(cut, graph.Edge{U: x, V: v, W: wgt[i]})
			}
		}
	}
	g := sortBuildReference(hi-lo, local)
	for x := lo; x < hi; x++ {
		g.Self[x-lo] += c.SelfLoop(x)
	}
	return g, cut
}

// graphSource replays g's edges and self-loops as a stream.
func graphSource(g *graph.Graph) graphio.EdgeSource {
	return func(yield func(u, v, w int64) error) error {
		for _, e := range g.Edges() {
			if err := yield(e.U, e.V, e.W); err != nil {
				return err
			}
		}
		for x, s := range g.Self {
			if s != 0 {
				if err := yield(int64(x), int64(x), s); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// TestInducedFromCSRMatchesBuildExtraction checks the O(E) extraction
// against the builder-based one on R-MAT and LJSim CSRs, both the sorted
// in-memory view and a StreamMapped file's mapping, for every shard of the
// edge-balanced K-way partition DetectSharded uses: graphs and cut lists
// must be equal, and FromCSR must equal the one-shard extraction.
func TestInducedFromCSRMatchesBuildExtraction(t *testing.T) {
	rmat, err := gen.RMATGraph(2, gen.DefaultRMAT(11, 3))
	if err != nil {
		t.Fatal(err)
	}
	lj, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 5))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, g := range map[string]*graph.Graph{"rmat": rmat, "ljsim": lj} {
		sorted := graph.ToCSR(2, g)
		graph.SortCSRRows(2, sorted)
		path := filepath.Join(dir, name+".mmapcsr")
		if _, err := graphio.StreamMapped(path, g.NumVertices(), graphSource(g), graphio.StreamOptions{MaxBufferedEdges: 4096}); err != nil {
			t.Fatal(err)
		}
		mp, err := graphio.OpenMapped(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mp.Close()
		for view, c := range map[string]*graph.CSR{"sorted": sorted, "mapped": mp.CSR()} {
			n := c.NumVertices()
			whole, err := graph.FromCSR(2, c)
			if err != nil {
				t.Fatalf("%s/%s: FromCSR: %v", name, view, err)
			}
			ref, _ := buildExtraction(c, 0, n)
			if err := sameGraph(whole, ref); err != nil {
				t.Fatalf("%s/%s: FromCSR: %v", name, view, err)
			}
			for _, K := range []int{1, 2, 3, 4, 7} {
				pt := &par.Partition{}
				rowStart, rowEnd := c.RowBounds()
				pt.BuildBuckets(nil, K, int(n), rowStart, rowEnd)
				for k := 0; k < pt.Workers(); k++ {
					lo, hi := pt.Range(k)
					got, cut, err := graph.InducedFromCSR(c, int64(lo), int64(hi))
					if err != nil {
						t.Fatalf("%s/%s K=%d shard %d: %v", name, view, K, k, err)
					}
					want, wantCut := buildExtraction(c, int64(lo), int64(hi))
					if err := sameGraph(got, want); err != nil {
						t.Fatalf("%s/%s K=%d shard %d: %v", name, view, K, k, err)
					}
					if !slices.Equal(cut, wantCut) {
						t.Fatalf("%s/%s K=%d shard %d: cut lists differ (%d vs %d edges)", name, view, K, k, len(cut), len(wantCut))
					}
				}
			}
		}
	}
}
