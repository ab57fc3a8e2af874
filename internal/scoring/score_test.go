package scoring

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

// funcScorer adapts a closed-form function to Scorer. It is not one of the
// builtin types, so the sweep scores it through Edge.
type funcScorer struct {
	label string
	f     func(w, degU, degV, selfU, selfV, totalWeight int64) float64
}

func (f funcScorer) Name() string { return f.label }

func (f funcScorer) Edge(w, degU, degV, selfU, selfV, totalWeight int64) float64 {
	return f.f(w, degU, degV, selfU, selfV, totalWeight)
}

// constScorer scores every edge c, except that an edge of weight 7 scores
// at7.
func constScorer(label string, c, at7 float64) funcScorer {
	return funcScorer{label: label, f: func(w, _, _, _, _, _ int64) float64 {
		if w == 7 {
			return at7
		}
		return c
	}}
}

func TestFuncAdapterMatchesModularity(t *testing.T) {
	// Each builtin's inline loop, the same closed form through the generic
	// Edge path, and Edge called directly must agree bit for bit.
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(500, 13))
	if err != nil {
		t.Fatal(err)
	}
	deg := g.WeightedDegrees(1)
	m := g.TotalWeight(1)
	for _, b := range []Scorer{Modularity{}, Conductance{}} {
		inline := scoreAll(t, b, g, 2)
		generic := scoreAll(t, funcScorer{label: "via-func", f: b.Edge}, g, 2)
		g.ForEachEdge(func(e int64, u, v, w int64) {
			want := b.Edge(w, deg[u], deg[v], g.Self[u], g.Self[v], m)
			if inline[e] != want || generic[e] != want {
				t.Fatalf("%s edge %d: inline %v, via Edge %v, Edge %v", b.Name(), e, inline[e], generic[e], want)
			}
		})
	}
}

// maskGraph builds a small weighted graph with a few communities' worth of
// structure and a self-loop, for exercising the size mask.
func maskGraph(t *testing.T) *graph.Graph {
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

// separateSweeps is the reference for Score: a fill through Edge, then the
// size mask, then the positive-edge scan, each a plain serial pass. It
// returns the scores, the positive flag and the masked count.
func separateSweeps(s Scorer, g *graph.Graph, sizes []int64, maxSize int64) ([]float64, bool, int64) {
	deg := g.WeightedDegrees(1)
	m := g.TotalWeight(1)
	scores := make([]float64, len(g.V))
	g.ForEachEdge(func(e int64, u, v, w int64) {
		scores[e] = s.Edge(w, deg[u], deg[v], g.Self[u], g.Self[v], m)
	})
	var masked int64
	if maxSize > 0 {
		g.ForEachEdge(func(e int64, u, v, _ int64) {
			if sizes[u]+sizes[v] > maxSize {
				scores[e] = -1
				masked++
			}
		})
	}
	positive := false
	g.ForEachEdge(func(e int64, _, _, _ int64) { positive = positive || scores[e] > 0 })
	return scores, positive, masked
}

// TestScoreMatchesSeparateSweeps checks that the one sweep produces
// bit-identical scores, the same mask, and the same positive flag as the
// three separate passes it folds together, for both builtin metrics and a
// scorer on the generic path, serial and parallel, in every masking
// configuration.
func TestScoreMatchesSeparateSweeps(t *testing.T) {
	g := maskGraph(t)
	deg := g.WeightedDegrees(1)
	totW := g.TotalWeight(1)
	sizes := []int64{1, 2, 1, 3, 1, 1, 2, 1}
	generic := funcScorer{label: "via-func", f: Modularity{}.Edge}
	for _, scorer := range []Scorer{Modularity{}, Conductance{}, generic} {
		for _, maxSize := range []int64{0, 3, 100} {
			want, wantPos, wantMasked := separateSweeps(scorer, g, sizes, maxSize)
			for _, p := range []int{1, 2} {
				got := make([]float64, len(g.V))
				var nMasked int64
				gotPos := Score(exec.Background(p), scorer, g, deg, totW, got, sizes, maxSize, &nMasked)
				if gotPos != wantPos {
					t.Fatalf("%s maxSize=%d p=%d: positive=%v, separate=%v",
						scorer.Name(), maxSize, p, gotPos, wantPos)
				}
				for e := range want {
					if got[e] != want[e] {
						t.Fatalf("%s maxSize=%d p=%d: scores[%d]=%v, separate=%v",
							scorer.Name(), maxSize, p, e, got[e], want[e])
					}
				}
				if nMasked != wantMasked {
					t.Fatalf("%s maxSize=%d p=%d: masked tap=%d, separate mask wrote %d",
						scorer.Name(), maxSize, p, nMasked, wantMasked)
				}
			}
		}
	}
}

// starPlusClique builds a star whose hub stores every one of its edges in
// its own bucket (under the parity hash, an equal-parity larger neighbor or
// an odd-parity smaller one), plus a 5-clique, with the hub placed so that
// its bucket straddles the span boundaries of an edge-balanced partition
// at 2, 3 and 7 workers. The hub's edge to vertex 40 weighs 7.
func starPlusClique(t *testing.T) (g *graph.Graph, hub int) {
	t.Helper()
	const n = 120
	hub = 38
	var edges []graph.Edge
	for v := int64(0); v < n-5; v++ {
		if h := int64(hub); v != h && (v > h) == (v%2 == h%2) {
			w := 1 + v%3
			if v == h+2 {
				w = 7
			}
			edges = append(edges, graph.Edge{U: h, V: v, W: w})
		}
	}
	for u := int64(n - 5); u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: u, V: v, W: 2})
		}
	}
	g, err := graph.Build(1, n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g, hub
}

// TestScoreSplitSpans installs an edge-balanced partition whose spans split
// the hub's bucket between workers, and checks that every scorer's scores
// (bitwise), positive flag and masked count equal the serial sweep's. The
// constant scorers pin the positive flag on all-zero, one-positive and
// all-negative score arrays.
func TestScoreSplitSpans(t *testing.T) {
	g, hub := starPlusClique(t)
	n := int(g.NumVertices())
	deg := g.WeightedDegrees(1)
	totW := g.TotalWeight(1)
	sizes := make([]int64, n)
	for x := range sizes {
		sizes[x] = 1 + int64(x%4)
	}
	rows := []struct {
		scorer  Scorer
		maxSize int64
		pos     bool
	}{
		{Modularity{}, 0, true},
		{Modularity{}, 4, true},
		{Conductance{}, 0, true},
		{Conductance{}, 4, true},
		{constScorer("all-zero", 0, 0), 0, false},
		{constScorer("one-positive", 0, 1e-9), 0, true},
		{constScorer("one-positive-masked", 0, 1e-9), 3, false},
		{constScorer("all-negative", -0.5, -0.5), 0, false},
	}
	for _, p := range []int{2, 3, 7} {
		ec := exec.New(context.Background(), p, nil)
		pt := &par.Partition{}
		ec.BuildBuckets(pt, n, g.Start, g.End)
		ec.SetPartition(pt)
		if ec.Balanced(n, g.NumEdges()) != pt {
			t.Fatalf("p=%d: installed partition not adopted", p)
		}
		onHub := 0
		for j := 0; j < pt.Workers(); j++ {
			if sp := pt.Span(j); sp.LoV <= hub && hub < sp.HiV {
				onHub++
			}
		}
		if onHub < 2 {
			t.Fatalf("p=%d: the hub's bucket lies in %d span(s), want it split", p, onHub)
		}
		for _, r := range rows {
			want := make([]float64, len(g.V))
			var wantMasked int64
			wantPos := Score(exec.Background(1), r.scorer, g, deg, totW, want, sizes, r.maxSize, &wantMasked)
			if wantPos != r.pos {
				t.Fatalf("%s maxSize=%d: serial positive=%v, want %v", r.scorer.Name(), r.maxSize, wantPos, r.pos)
			}
			got := make([]float64, len(g.V))
			var gotMasked int64
			gotPos := Score(ec, r.scorer, g, deg, totW, got, sizes, r.maxSize, &gotMasked)
			if gotPos != wantPos || gotMasked != wantMasked {
				t.Fatalf("%s maxSize=%d p=%d: positive=%v masked=%d, serial %v and %d",
					r.scorer.Name(), r.maxSize, p, gotPos, gotMasked, wantPos, wantMasked)
			}
			if r.maxSize > 0 && wantMasked == 0 {
				t.Fatalf("%s maxSize=%d: the cap masked nothing", r.scorer.Name(), r.maxSize)
			}
			for e := range want {
				if got[e] != want[e] {
					t.Fatalf("%s maxSize=%d p=%d: scores[%d]=%v, serial %v",
						r.scorer.Name(), r.maxSize, p, e, got[e], want[e])
				}
			}
		}
		ec.Close()
	}
}

// TestScoreFusedZeroWeight checks that the fused sweep over an edgeless
// graph, with no degrees and no total weight, reports no positive edge.
func TestScoreFusedZeroWeight(t *testing.T) {
	g := graph.NewEmpty(3)
	scores := make([]float64, 0)
	for _, s := range []Scorer{Modularity{}, Conductance{}} {
		if Score(exec.Background(1), s, g, nil, 0, scores, nil, 0, nil) {
			t.Fatalf("%s: empty graph reported a positive score", s.Name())
		}
	}
}
