package seq_test

import (
	"testing"

	"repro/internal/contract"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/seq"
)

// TestOverlayOverContractedGraph feeds random update batches to an overlay
// whose base is contraction output — buckets in first-seen order, not
// sorted by V — and requires the merged view and every compaction to match
// the map-based seq.ApplyDelta fold edge for edge. The base handed to the
// overlay must come out untouched.
func TestOverlayOverContractedGraph(t *testing.T) {
	g, _, err := gen.ConnectedRMAT(2, gen.DefaultRMAT(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	mapping := make([]int64, n)
	for v := range mapping {
		mapping[v] = int64(v) / 2
	}
	base := contract.ByMapping(exec.Background(2), g, mapping, (n+1)/2, nil, nil)
	if !hasUnsortedBucket(base) {
		t.Fatal("contracted base has every bucket sorted; the test would not exercise the unsorted path")
	}
	snapshot := base.Clone()
	batches, err := gen.Deltas(base, gen.DeltaConfig{
		Batches: 24, BatchSize: 40, DeleteFrac: 0.4, MaxWeight: 3, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	ov := graph.NewOverlay(2, base)
	oracle := base
	for i, batch := range batches {
		if err := ov.ApplyDelta(batch); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if oracle, err = seq.ApplyDelta(oracle, batch); err != nil {
			t.Fatalf("batch %d oracle: %v", i, err)
		}
		sameView(t, i, ov, oracle)
		// Compact every few batches so several batches land on the
		// contracted base before the first rebuild replaces it.
		if i%6 == 5 {
			got, err := ov.Compact()
			if err != nil {
				t.Fatalf("batch %d compact: %v", i, err)
			}
			sameEdges(t, i, got, oracle)
		}
	}
	sameEdges(t, -1, base, snapshot)
}

// hasUnsortedBucket reports whether some bucket of g is not sorted by V.
func hasUnsortedBucket(g *graph.Graph) bool {
	for x := int64(0); x < g.NumVertices(); x++ {
		lo, hi := g.Bucket(x)
		for e := lo + 1; e < hi; e++ {
			if g.V[e] < g.V[e-1] {
				return true
			}
		}
	}
	return false
}

// sameView compares the overlay's merged adjacency and self-loops with
// want's, vertex by vertex.
func sameView(t *testing.T, round int, ov *graph.Overlay, want *graph.Graph) {
	t.Helper()
	if ov.NumEdges() != want.NumEdges() {
		t.Fatalf("round %d: overlay has %d edges, oracle %d", round, ov.NumEdges(), want.NumEdges())
	}
	c := graph.ToCSR(1, want)
	for x := int64(0); x < want.NumVertices(); x++ {
		wantN := map[int64]int64{}
		adj, wgt := c.Neighbors(x)
		for i, v := range adj {
			wantN[v] = wgt[i]
		}
		gotN := map[int64]int64{}
		ov.ForNeighbors(x, func(v, w int64) {
			if _, dup := gotN[v]; dup {
				t.Fatalf("round %d: vertex %d reports neighbor %d twice", round, x, v)
			}
			gotN[v] = w
		})
		if len(gotN) != len(wantN) {
			t.Fatalf("round %d: vertex %d has %d neighbors, oracle %d", round, x, len(gotN), len(wantN))
		}
		for v, w := range wantN {
			if gotN[v] != w {
				t.Fatalf("round %d: edge {%d,%d} weight %d, oracle %d", round, x, v, gotN[v], w)
			}
		}
		if ov.SelfLoop(x) != want.Self[x] {
			t.Fatalf("round %d: self-loop at %d: %d, oracle %d", round, x, ov.SelfLoop(x), want.Self[x])
		}
	}
}

// sameEdges requires a and b to list the same edges in the same bucket
// order, with equal self-loops.
func sameEdges(t *testing.T, round int, a, b *graph.Graph) {
	t.Helper()
	ae, be := a.Edges(), b.Edges()
	if a.NumVertices() != b.NumVertices() || len(ae) != len(be) {
		t.Fatalf("round %d: shape (%d,%d) vs (%d,%d)", round, a.NumVertices(), len(ae), b.NumVertices(), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("round %d: edge %d: %v vs %v", round, i, ae[i], be[i])
		}
	}
	for x := int64(0); x < a.NumVertices(); x++ {
		if a.Self[x] != b.Self[x] {
			t.Fatalf("round %d: self-loop at %d: %d vs %d", round, x, a.Self[x], b.Self[x])
		}
	}
}
