package scoring

import (
	"repro/internal/exec"
	"repro/internal/graph"
)

// EdgeScore is a closed-form per-edge merge score: it sees the edge weight,
// both endpoints' weighted degrees (community volumes) and self-loop
// weights (internal edge counts), and the input graph's total weight. This
// is exactly the information the paper's metrics need (§IV-B: "An edge
// {i, j} requires its weight, the self-loop weights for i and j, and the
// total weight of the graph"), so any metric in that family plugs in
// without touching the engine.
type EdgeScore func(w, degU, degV, selfU, selfV, totalWeight int64) float64

// Func adapts an EdgeScore closed form to the Scorer interface, running it
// over every live edge in parallel. The paper's algorithm "is agnostic
// towards edge scoring methods and can benefit from any problem-specific
// methods" (§II); Func is the plug-in point.
type Func struct {
	Label string
	F     EdgeScore
}

// Name implements Scorer.
func (f Func) Name() string { return f.Label }

// Score implements Scorer.
func (f Func) Score(ec *exec.Ctx, g *graph.Graph, deg []int64, totalWeight int64, scores []float64) {
	n := int(g.NumVertices())
	ec.ForDynamic(n, 0, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			for e := g.Start[x]; e < g.End[x]; e++ {
				u, v := x, g.V[e]
				scores[e] = f.F(g.W[e], deg[u], deg[v], g.Self[u], g.Self[v], totalWeight)
			}
		}
	})
}

// HeavyEdge returns the multilevel-graph-partitioning coarsening heuristic
// ([18], [19] in the paper): score an edge by its raw weight, so matching
// contracts the heaviest edges first. Unlike modularity it never goes
// non-positive, so runs using it must bound phases with MaxPhases,
// MinCommunities, or MaxCommunitySize.
func HeavyEdge() Func {
	return Func{
		Label: "heavy-edge",
		F: func(w, _, _, _, _, _ int64) float64 {
			return float64(w)
		},
	}
}

// HeavyEdgeNormalized scores an edge by weight divided by the product of
// endpoint volumes, the "heavy-edge / inner product" variant that avoids
// repeatedly collapsing the same hub.
func HeavyEdgeNormalized() Func {
	return Func{
		Label: "heavy-edge-normalized",
		F: func(w, degU, degV, _, _, _ int64) float64 {
			d := float64(degU) * float64(degV)
			if d <= 0 {
				return 0
			}
			return float64(w) / d
		},
	}
}
