package scoring

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
)

// fusedGraph builds a small weighted graph with a few communities' worth of
// structure for exercising the fused sweep.
func fusedGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Build(1, 8, []graph.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 4},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 2}, {U: 5, V: 6, W: 5},
		{U: 6, V: 7, W: 1}, {U: 7, V: 0, W: 2}, {U: 0, V: 4, W: 1},
		{U: 2, V: 6, W: 3}, {U: 1, V: 1, W: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestScoreFusedMatchesSeparateSweeps checks that the fused sweep produces
// bit-identical scores, the same mask, and the same positive flag as the
// three separate passes it replaces, for both builtin metrics and for every
// masking configuration.
func TestScoreFusedMatchesSeparateSweeps(t *testing.T) {
	g := fusedGraph(t)
	deg := g.WeightedDegrees(1)
	totW := g.TotalWeight(1)
	sizes := []int64{1, 2, 1, 3, 1, 1, 2, 1}
	for _, scorer := range []Scorer{Modularity{}, Conductance{}} {
		fused, ok := scorer.(Fused)
		if !ok {
			t.Fatalf("%s does not implement Fused", scorer.Name())
		}
		for _, maxSize := range []int64{0, 3, 100} {
			want := make([]float64, len(g.V))
			scorer.Score(exec.Background(1), g, deg, totW, want)
			if maxSize > 0 {
				for x := int64(0); x < g.NumVertices(); x++ {
					for e := g.Start[x]; e < g.End[x]; e++ {
						if sizes[x]+sizes[g.V[e]] > maxSize {
							want[e] = -1
						}
					}
				}
			}
			wantPos := HasPositive(exec.Background(1), g, want)

			got := make([]float64, len(g.V))
			var nMasked int64
			gotPos := fused.ScoreFused(exec.Background(2), g, deg, totW, got, sizes, maxSize, &nMasked)
			if gotPos != wantPos {
				t.Fatalf("%s maxSize=%d: fused positive=%v, separate=%v",
					scorer.Name(), maxSize, gotPos, wantPos)
			}
			for e := range want {
				if got[e] != want[e] {
					t.Fatalf("%s maxSize=%d: scores[%d] fused=%v separate=%v",
						scorer.Name(), maxSize, e, got[e], want[e])
				}
			}
			var wantMasked int64
			for _, s := range want {
				if s == -1 {
					wantMasked++
				}
			}
			// The masked tap must agree with the separate mask sweep. (Scores
			// of exactly -1 only arise from masking for these metrics on this
			// graph.)
			if nMasked != wantMasked {
				t.Fatalf("%s maxSize=%d: masked tap=%d, separate mask wrote %d",
					scorer.Name(), maxSize, nMasked, wantMasked)
			}
		}
	}
}

// TestScoreFusedZeroWeight covers the degenerate all-self-loop graph.
func TestScoreFusedZeroWeight(t *testing.T) {
	g := graph.NewEmpty(3)
	scores := make([]float64, 0)
	if (Modularity{}).ScoreFused(exec.Background(1), g, nil, 0, scores, nil, 0, nil) {
		t.Fatal("empty graph reported a positive score")
	}
}
