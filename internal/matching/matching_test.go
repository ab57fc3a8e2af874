package matching

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/scoring"
)

// kernels under test, by name, adapted back to a plain worker-count
// signature for the table-driven tests.
var kernels = map[string]func(p int, g *graph.Graph, scores []float64) Result{
	"worklist": func(p int, g *graph.Graph, scores []float64) Result {
		return Worklist(exec.Background(p), g, scores, nil)
	},
	"edgesweep": func(p int, g *graph.Graph, scores []float64) Result {
		return EdgeSweep(exec.Background(p), g, scores, nil)
	},
}

// uniformScores gives every edge score 1.
func uniformScores(g *graph.Graph) []float64 {
	s := make([]float64, len(g.V))
	g.ForEachEdge(func(e int64, _, _, _ int64) { s[e] = 1 })
	return s
}

// weightScores scores each edge by its weight.
func weightScores(g *graph.Graph) []float64 {
	s := make([]float64, len(g.V))
	g.ForEachEdge(func(e int64, _, _, w int64) { s[e] = float64(w) })
	return s
}

func TestSingleEdge(t *testing.T) {
	g := graph.MustBuild(1, 2, []graph.Edge{{U: 0, V: 1, W: 1}})
	for name, kern := range kernels {
		res := kern(2, g, uniformScores(g))
		if res.Pairs != 1 || res.Match[0] != 1 || res.Match[1] != 0 {
			t.Errorf("%s: single edge not matched: %+v", name, res)
		}
		if err := Verify(g, uniformScores(g), res.Match); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestNoPositiveScores(t *testing.T) {
	g := gen.Ring(6)
	scores := make([]float64, len(g.V)) // all zero
	for name, kern := range kernels {
		res := kern(2, g, scores)
		if res.Pairs != 0 {
			t.Errorf("%s: matched %d pairs with no positive scores", name, res.Pairs)
		}
		for _, m := range res.Match {
			if m != Unmatched {
				t.Errorf("%s: vertex matched with no positive scores", name)
			}
		}
	}
}

func TestNegativeScoresExcluded(t *testing.T) {
	// Path 0-1-2: edge {0,1} positive, edge {1,2} negative.
	g := graph.MustBuild(1, 3, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}})
	scores := make([]float64, len(g.V))
	g.ForEachEdge(func(e int64, u, v, _ int64) {
		if (u == 0 && v == 1) || (u == 1 && v == 0) {
			scores[e] = 1
		} else {
			scores[e] = -1
		}
	})
	for name, kern := range kernels {
		res := kern(1, g, scores)
		if res.Match[0] != 1 || res.Match[2] != Unmatched {
			t.Errorf("%s: match %v, want 0-1 paired and 2 free", name, res.Match)
		}
		if err := Verify(g, scores, res.Match); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestStarMatchesOnePair(t *testing.T) {
	g := gen.Star(10)
	for name, kern := range kernels {
		scores := uniformScores(g)
		res := kern(4, g, scores)
		if res.Pairs != 1 {
			t.Errorf("%s: star matched %d pairs, want 1", name, res.Pairs)
		}
		if err := Verify(g, scores, res.Match); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestHeaviestEdgeWinsOnPath(t *testing.T) {
	// Path 0-1-2-3 with middle edge far heavier: greedy must take {1,2}.
	g := graph.MustBuild(1, 4, []graph.Edge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 100}, {U: 2, V: 3, W: 1}})
	for name, kern := range kernels {
		scores := weightScores(g)
		res := kern(2, g, scores)
		if res.Match[1] != 2 || res.Match[2] != 1 {
			t.Errorf("%s: heavy middle edge not matched: %v", name, res.Match)
		}
		if err := Verify(g, scores, res.Match); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestMaximalAndValidOnRandomGraphs(t *testing.T) {
	r := par.NewRNG(31)
	for trial := 0; trial < 20; trial++ {
		n := int64(20 + r.Intn(100))
		var edges []graph.Edge
		cnt := int(n) * 3
		for i := 0; i < cnt; i++ {
			edges = append(edges, graph.Edge{U: r.Int63n(n), V: r.Int63n(n), W: r.Int63n(10) + 1})
		}
		g := graph.MustBuild(2, n, edges)
		scores := weightScores(g)
		for name, kern := range kernels {
			for _, p := range []int{1, 4} {
				res := kern(p, g, scores)
				if err := Verify(g, scores, res.Match); err != nil {
					t.Fatalf("trial %d %s p=%d: %v", trial, name, p, err)
				}
			}
		}
	}
}

// bruteMaxMatching finds the true maximum-weight matching over positive
// edges by exhaustive search (tiny graphs only).
func bruteMaxMatching(g *graph.Graph, scores []float64) float64 {
	type edge struct {
		u, v int64
		s    float64
	}
	var es []edge
	g.ForEachEdge(func(e int64, u, v, _ int64) {
		if scores[e] > 0 {
			es = append(es, edge{u, v, scores[e]})
		}
	})
	n := g.NumVertices()
	used := make([]bool, n)
	var rec func(i int) float64
	rec = func(i int) float64 {
		if i == len(es) {
			return 0
		}
		best := rec(i + 1) // skip edge i
		e := es[i]
		if !used[e.u] && !used[e.v] {
			used[e.u], used[e.v] = true, true
			if w := e.s + rec(i+1); w > best {
				best = w
			}
			used[e.u], used[e.v] = false, false
		}
		return best
	}
	return rec(0)
}

func TestHalfApproximationProperty(t *testing.T) {
	// Greedy maximal matching weight ≥ max/2 on small random graphs.
	f := func(raw []uint16, pRaw uint8) bool {
		p := int(pRaw%4) + 1
		const n = 10
		var edges []graph.Edge
		for i := 0; i+2 < len(raw) && len(edges) < 14; i += 3 {
			edges = append(edges, graph.Edge{
				U: int64(raw[i] % n), V: int64(raw[i+1] % n), W: int64(raw[i+2]%20) + 1})
		}
		g, err := graph.Build(1, n, edges)
		if err != nil {
			return false
		}
		scores := weightScores(g)
		opt := bruteMaxMatching(g, scores)
		for _, kern := range kernels {
			res := kern(p, g, scores)
			if Verify(g, scores, res.Match) != nil {
				return false
			}
			if res.Weight < opt/2-1e-9 {
				return false
			}
			if res.Weight > opt+1e-9 {
				return false // heavier than the optimum is impossible
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestModularityScoredMatchingOnLJSim(t *testing.T) {
	g, _, err := gen.LJSim(4, gen.DefaultLJSim(2000, 77))
	if err != nil {
		t.Fatal(err)
	}
	deg := g.WeightedDegrees(4)
	scores := make([]float64, len(g.V))
	scoring.Score(exec.Background(4), scoring.Modularity{}, g, deg, g.TotalWeight(4), scores, nil, 0, nil)
	for name, kern := range kernels {
		res := kern(4, g, scores)
		if err := Verify(g, scores, res.Match); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Pairs == 0 {
			t.Fatalf("%s: no pairs on a community-rich graph", name)
		}
		if res.Weight <= 0 {
			t.Fatalf("%s: non-positive matching weight %v", name, res.Weight)
		}
	}
}

func TestResultWeightMatchesMatchedEdges(t *testing.T) {
	g := gen.CliqueChain(4, 5)
	scores := weightScores(g)
	for name, kern := range kernels {
		res := kern(3, g, scores)
		var want float64
		g.ForEachEdge(func(e int64, u, v, _ int64) {
			if res.Match[u] == v {
				want += scores[e]
			}
		})
		if math.Abs(res.Weight-want) > 1e-9 {
			t.Fatalf("%s: Weight %v, recomputed %v", name, res.Weight, want)
		}
		var pairs int64
		for x, m := range res.Match {
			if m != Unmatched && int64(x) < m {
				pairs++
			}
		}
		if pairs != res.Pairs {
			t.Fatalf("%s: Pairs %d, recomputed %d", name, res.Pairs, pairs)
		}
	}
}

func TestVerifyCatchesBadMatchings(t *testing.T) {
	g := graph.MustBuild(1, 4, []graph.Edge{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	scores := uniformScores(g)
	bad := [][]int64{
		{1, 0, Unmatched, Unmatched}, // not maximal: {2,3} open
		{1, 0, 3, 99},                // partner out of range
		{1, 0, 3, 3},                 // self-match
		{1, 2, 1, Unmatched},         // asymmetric
		{2, Unmatched, 0, Unmatched}, // no stored edge between 0 and 2
		{1, 0, 3},                    // wrong length
	}
	for i, m := range bad {
		if err := Verify(g, scores, m); err == nil {
			t.Errorf("bad matching %d accepted", i)
		}
	}
	good := []int64{1, 0, 3, 2}
	if err := Verify(g, scores, good); err != nil {
		t.Errorf("good matching rejected: %v", err)
	}
}

func TestPassesReported(t *testing.T) {
	g := gen.Clique(20)
	for name, kern := range kernels {
		res := kern(4, g, uniformScores(g))
		if res.Passes < 1 {
			t.Errorf("%s: reported %d passes", name, res.Passes)
		}
	}
}

func TestIncreasingPathIsDeterministicLocalMax(t *testing.T) {
	// Path with strictly increasing weights 1..n-1: the locally dominant
	// discipline must always match from the heavy end downward, taking
	// edges n-1, n-3, n-5, ... regardless of parallelism. This pins the
	// greedy semantics, not just validity.
	const n = 12
	var edges []graph.Edge
	for i := int64(0); i < n-1; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: i + 1})
	}
	g := graph.MustBuild(1, n, edges)
	scores := weightScores(g)
	for name, kern := range kernels {
		for _, p := range []int{1, 4} {
			res := kern(p, g, scores)
			if err := Verify(g, scores, res.Match); err != nil {
				t.Fatalf("%s p=%d: %v", name, p, err)
			}
			// Expected pairs: (10,11), (8,9), (6,7), (4,5), (2,3), (0,1).
			for x := int64(0); x < n; x += 2 {
				if res.Match[x] != x+1 || res.Match[x+1] != x {
					t.Fatalf("%s p=%d: match %v, want alternating pairs from the heavy end",
						name, p, res.Match)
				}
			}
			if res.Pairs != n/2 {
				t.Fatalf("%s p=%d: %d pairs", name, p, res.Pairs)
			}
		}
	}
}

func TestWorklistAdversarialPathWorstCase(t *testing.T) {
	// The paper: "Strictly this is not an O(|E|) algorithm, but the number
	// of passes is small enough in social network graphs" (§IV-B). The
	// strictly increasing path is the adversarial case: exactly one edge is
	// locally dominant per pass, so a locally-dominant matcher needs ~n/2
	// passes. Pin that known worst case so regressions in the pass
	// accounting are visible.
	const n = 1000
	var edges []graph.Edge
	for i := int64(0); i < n-1; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: i + 1})
	}
	g := graph.MustBuild(2, n, edges)
	scores := weightScores(g)
	res := Worklist(exec.Background(2), g, scores, nil)
	if err := Verify(g, scores, res.Match); err != nil {
		t.Fatal(err)
	}
	if res.Passes < n/2-2 || res.Passes > n/2+2 {
		t.Fatalf("adversarial path took %d passes, expected ≈%d", res.Passes, n/2)
	}
}

func TestWorklistFewPassesOnSocialGraph(t *testing.T) {
	// The flip side of the worst case: on a social-network-like graph the
	// pass count stays far below |V|, which is the paper's justification
	// for calling the matching "effectively O(|E|)".
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(20000, 5))
	if err != nil {
		t.Fatal(err)
	}
	deg := g.WeightedDegrees(2)
	scores := make([]float64, len(g.V))
	scoring.Score(exec.Background(2), scoring.Modularity{}, g, deg, g.TotalWeight(2), scores, nil, 0, nil)
	res := Worklist(exec.Background(2), g, scores, nil)
	if err := Verify(g, scores, res.Match); err != nil {
		t.Fatal(err)
	}
	if res.Passes > 100 {
		t.Fatalf("social graph took %d passes; should be far below |V|", res.Passes)
	}
}
