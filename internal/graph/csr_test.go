package graph_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/contract"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

// referenceCSR builds g's symmetric view by the row order ToCSR defines:
// row x is x's own bucket in bucket order, then an entry (y, w) for every
// edge (y, x, w) stored in another bucket, by ascending source bucket y.
func referenceCSR(g *graph.Graph) *graph.CSR {
	n := g.NumVertices()
	rows := make([][][2]int64, n)
	for x := int64(0); x < n; x++ {
		for e := g.Start[x]; e < g.End[x]; e++ {
			rows[x] = append(rows[x], [2]int64{g.V[e], g.W[e]})
		}
	}
	for y := int64(0); y < n; y++ {
		for e := g.Start[y]; e < g.End[y]; e++ {
			rows[g.V[e]] = append(rows[g.V[e]], [2]int64{y, g.W[e]})
		}
	}
	c := &graph.CSR{Offsets: []int64{0}, Adj: []int64{}, Wgt: []int64{}, Self: slices.Clone(g.Self)}
	for _, row := range rows {
		for _, ent := range row {
			c.Adj = append(c.Adj, ent[0])
			c.Wgt = append(c.Wgt, ent[1])
		}
		c.Offsets = append(c.Offsets, int64(len(c.Adj)))
	}
	return c
}

func requireSameCSR(t *testing.T, what string, got, want *graph.CSR) {
	t.Helper()
	n := want.NumVertices()
	if got.NumVertices() != n {
		t.Fatalf("%s: %d vertices, want %d", what, got.NumVertices(), n)
	}
	m := want.Offsets[n]
	switch {
	case !slices.Equal(got.Offsets, want.Offsets):
		t.Fatalf("%s: Offsets differ from the reference", what)
	case !slices.Equal(got.Adj[:m], want.Adj), !slices.Equal(got.Wgt[:m], want.Wgt):
		t.Fatalf("%s: row entries differ from the reference order", what)
	case !slices.Equal(got.Self, want.Self):
		t.Fatalf("%s: Self differs", what)
	}
}

// gapped reports whether some bucket of g does not start where the bucket
// of the previous vertex ends: buckets out of vertex order, or holes.
func gapped(g *graph.Graph) bool {
	for x := int64(1); x < g.NumVertices(); x++ {
		if g.Start[x] != g.End[x-1] && g.End[x] > g.Start[x] {
			return true
		}
	}
	return false
}

// overlayBase folds a run of random batches into an overlay over g and
// returns its compacted base: after the first repack, patched buckets
// shrink in place or move to the tail reserve, leaving holes and buckets
// out of vertex order.
func overlayBase(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	r := par.NewRNG(11)
	n := g.NumVertices()
	o := graph.NewOverlay(2, g)
	for batch := uint64(1); batch <= 6; batch++ {
		d := &graph.Delta{Version: batch}
		for k := 0; k < 200; k++ {
			u, v := r.Int63n(n), r.Int63n(n)
			if u == v {
				continue
			}
			if r.Intn(3) == 0 {
				d.Delete(u, v)
			} else {
				d.Insert(u, v, r.Int63n(3)+1)
			}
		}
		if err := o.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	return o.Base()
}

// TestToCSRRowOrderSameAtEveryThreadCount requires ToCSR and ToCSRInto,
// into a fresh and into a reused view, to give the reference's Offsets,
// Adj and Wgt at every thread count: on a Build graph with hub buckets
// (split across ranges), on a contraction output whose buckets the dedup
// shortened in place, and on an overlay-compacted base with tail slots.
func TestToCSRRowOrderSameAtEveryThreadCount(t *testing.T) {
	rmat, err := gen.RMATGraph(2, gen.DefaultRMAT(10, 7))
	if err != nil {
		t.Fatal(err)
	}
	n := rmat.NumVertices()
	mapping := make([]int64, n)
	for v := range mapping {
		mapping[v] = int64(v) / 3
	}
	contracted := contract.ByMapping(exec.Background(3), rmat, mapping, (n+2)/3, nil, nil)
	base := overlayBase(t, rmat)
	for name, g := range map[string]*graph.Graph{"contracted": contracted, "overlay base": base} {
		if !gapped(g) {
			t.Fatalf("%s: buckets are contiguous; the case is not exercised", name)
		}
	}

	reused := &graph.CSR{}
	cases := []struct {
		name string
		g    *graph.Graph
	}{{"rmat", rmat}, {"contracted", contracted}, {"overlay base", base}, {"rmat again", rmat}}
	for _, tc := range cases {
		want := referenceCSR(tc.g)
		for _, p := range []int{1, 2, 3, 8} {
			what := fmt.Sprintf("%s p=%d", tc.name, p)
			requireSameCSR(t, what, graph.ToCSR(p, tc.g), want)
			requireSameCSR(t, what+" reused", graph.ToCSRInto(p, tc.g, reused), want)
		}
	}
}
