// Package scoring implements the edge-scoring step of the agglomerative
// loop (§III step 1, §IV-B): every community-graph edge {c, d} receives the
// change in the optimization metric that merging c and d would cause. The
// algorithm is agnostic to the metric; modularity maximization and
// conductance minimization (negated into a maximization) are provided, and
// any problem-specific Scorer can be plugged into the engine.
package scoring

import (
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/par"
)

// Scorer is a per-edge merge score in closed form. Edge sees the edge
// weight, both endpoints' weighted degrees (community volumes d_c = 2·self_c
// + Σ incident weight) and self-loop weights (internal edge weights), and
// the input graph's total weight m, which contraction preserves. That is
// exactly what the paper's metrics need (§IV-B: "An edge {i, j} requires
// its weight, the self-loop weights for i and j, and the total weight of
// the graph"), so any metric in that family plugs in without touching the
// engine (§II: the algorithm "is agnostic towards edge scoring methods").
//
// Edge must be pure and deterministic, and safe for concurrent use: the
// sweep calls it from every worker, in no fixed order. Score never calls
// it with totalWeight <= 0.
type Scorer interface {
	Name() string
	Edge(w, degU, degV, selfU, selfV, totalWeight int64) float64
}

// Score fills scores[e] for every live edge index e of g in one sweep (the
// slice is as long as g's edge arrays; entries at gap positions are left
// alone), and reports whether any unmasked edge scored strictly positive;
// if none did, the engine has reached a local maximum and terminates
// (§III). deg is g.WeightedDegrees.
//
// maxSize > 0 masks the merges the MaxCommunitySize cap forbids: an edge
// whose endpoints' sizes (per-community original-vertex counts) sum past
// maxSize scores -1. sizes is read only when maxSize > 0. masked, when
// non-nil, receives the number of masked edges, added once per chunk (never
// per edge), which is how the engine's observability layer taps the sweep
// without this package depending on it.
//
// The builtin metrics run inline loops; any other Scorer goes through Edge
// once per edge. totalWeight <= 0 means g has no edges (weights are
// positive), so Score returns false.
func Score(ec *exec.Ctx, s Scorer, g *graph.Graph, deg []int64, totalWeight int64, scores []float64, sizes []int64, maxSize int64, masked *int64) bool {
	n := int(g.NumVertices())
	if totalWeight <= 0 || n == 0 {
		return false
	}
	if ec.Serial(n) {
		positive, nMasked := scoreRange(s, g, deg, totalWeight, scores, sizes, maxSize, 0, n, g.Start[0], g.End[n-1])
		flushMasked(masked, nMasked)
		return positive
	}
	// Split spans write disjoint parts of one bucket; they share only found
	// and the masked tap, both written atomically.
	var found atomic.Bool
	chunk := func(lo, hi int, eloFirst, ehiLast int64) {
		positive, nMasked := scoreRange(s, g, deg, totalWeight, scores, sizes, maxSize, lo, hi, eloFirst, ehiLast)
		flushMasked(masked, nMasked)
		if positive {
			found.Store(true)
		}
	}
	if pt := ec.Balanced(n, g.NumEdges()); pt != nil {
		ec.ForSpans("score/fused", pt, func(_ int, sp par.Span) { chunk(sp.LoV, sp.HiV, sp.LoE, sp.HiE) })
	} else {
		ec.ForDynamic(n, 0, func(lo, hi int) { chunk(lo, hi, g.Start[lo], g.End[hi-1]) })
	}
	return found.Load()
}

// scoreRange scores vertices [lo, hi), entering the bucket of lo at edge
// eloFirst and leaving the bucket of hi-1 at edge ehiLast, so one body
// serves whole-vertex chunks and the edge-exact spans that split a hub's
// bucket between workers (exec.Balanced). A chunk of whole vertices passes
// g.Start[lo] and g.End[hi-1], making the clamps no-ops.
//
// A closure or type-parameter call of the closed form is not inlined, so
// each builtin keeps its own loop, with its per-graph and per-vertex terms
// hoisted; the shared helpers keep its arithmetic bitwise equal to Edge.
func scoreRange(s Scorer, g *graph.Graph, deg []int64, totalWeight int64, scores []float64, sizes []int64, maxSize int64, lo, hi int, eloFirst, ehiLast int64) (positive bool, nMasked int64) {
	var su int64
	switch s.(type) {
	case Modularity:
		inv, half := modularityTerms(totalWeight)
		for x := lo; x < hi; x++ {
			elo, ehi := bucket(g, x, lo, hi, eloFirst, ehiLast)
			if maxSize > 0 {
				su = sizes[x]
			}
			du := float64(deg[x])
			for e := elo; e < ehi; e++ {
				v := g.V[e]
				if maxSize > 0 && su+sizes[v] > maxSize {
					scores[e] = -1
					nMasked++
					continue
				}
				sc := deltaQ(g.W[e], du, float64(deg[v]), inv, half)
				scores[e] = sc
				positive = positive || sc > 0
			}
		}
	case Conductance:
		twoM := 2 * float64(totalWeight)
		for x := lo; x < hi; x++ {
			elo, ehi := bucket(g, x, lo, hi, eloFirst, ehiLast)
			if maxSize > 0 {
				su = sizes[x]
			}
			du, selfU := deg[x], g.Self[x]
			phiU := phi(du, selfU, twoM)
			for e := elo; e < ehi; e++ {
				v := g.V[e]
				if maxSize > 0 && su+sizes[v] > maxSize {
					scores[e] = -1
					nMasked++
					continue
				}
				sc := deltaPhi(phiU, g.W[e], du, deg[v], selfU, g.Self[v], twoM)
				scores[e] = sc
				positive = positive || sc > 0
			}
		}
	default:
		for x := lo; x < hi; x++ {
			elo, ehi := bucket(g, x, lo, hi, eloFirst, ehiLast)
			if maxSize > 0 {
				su = sizes[x]
			}
			du, selfU := deg[x], g.Self[x]
			for e := elo; e < ehi; e++ {
				v := g.V[e]
				if maxSize > 0 && su+sizes[v] > maxSize {
					scores[e] = -1
					nMasked++
					continue
				}
				sc := s.Edge(g.W[e], du, deg[v], selfU, g.Self[v], totalWeight)
				scores[e] = sc
				positive = positive || sc > 0
			}
		}
	}
	return positive, nMasked
}

// bucket returns the edge run of vertex x within the chunk [lo, hi) whose
// first bucket starts at eloFirst and whose last bucket ends at ehiLast.
func bucket(g *graph.Graph, x, lo, hi int, eloFirst, ehiLast int64) (elo, ehi int64) {
	elo, ehi = g.Start[x], g.End[x]
	if x == lo {
		elo = eloFirst
	}
	if x == hi-1 {
		ehi = ehiLast
	}
	return elo, ehi
}

// flushMasked adds a chunk's masked-edge count to the optional tap with one
// atomic add; the nil check is the disabled observability path.
func flushMasked(masked *int64, n int64) {
	if masked != nil && n != 0 {
		atomic.AddInt64(masked, n)
	}
}

// Modularity scores an edge {c, d} with the Newman–Girvan modularity change
//
//	ΔQ = w_cd/m − d_c·d_d/(2m²),
//
// the closed form the CNM family uses: only the edge weight and the
// adjacent community volumes are needed (§III).
type Modularity struct{}

// Name implements Scorer.
func (Modularity) Name() string { return "modularity" }

// Edge implements Scorer.
func (Modularity) Edge(w, degU, degV, _, _, totalWeight int64) float64 {
	inv, half := modularityTerms(totalWeight)
	return deltaQ(w, float64(degU), float64(degV), inv, half)
}

// modularityTerms returns the reciprocals 1/m and 1/(2m²) that ΔQ
// multiplies by; the sweep hoists them per graph.
func modularityTerms(totalWeight int64) (inv, half float64) {
	m := float64(totalWeight)
	return 1 / m, 1 / (2 * m * m)
}

func deltaQ(w int64, du, dv, inv, half float64) float64 {
	return float64(w)*inv - du*dv*half
}

// Conductance scores an edge {c, d} with the negated change in the sum of
// community conductances, converting the minimization into the
// maximization the engine performs (§III):
//
//	score = φ(c) + φ(d) − φ(c ∪ d),
//
// where φ(c) = cut_c / min(vol_c, 2m − vol_c), cut_c = vol_c − 2·self_c.
// Isolated communities (zero volume or zero complement) contribute φ = 0.
//
// The trivial partition — one community holding every vertex — has φ = 0
// and so minimizes the summed conductance. A run with no stop rule
// therefore merges each connected component into one community; pair the
// scorer with MinCoverage, MinCommunities or MaxPhases.
type Conductance struct{}

// Name implements Scorer.
func (Conductance) Name() string { return "conductance" }

// Edge implements Scorer.
func (Conductance) Edge(w, degU, degV, selfU, selfV, totalWeight int64) float64 {
	twoM := 2 * float64(totalWeight)
	return deltaPhi(phi(degU, selfU, twoM), w, degU, degV, selfU, selfV, twoM)
}

// deltaPhi is the conductance score given the first endpoint's φ, which
// the sweep hoists per vertex.
func deltaPhi(phiU float64, w, degU, degV, selfU, selfV int64, twoM float64) float64 {
	return phiU + phi(degV, selfV, twoM) - phi(degU+degV, selfU+selfV+w, twoM)
}

// phi is the conductance of a community with volume vol and internal
// weight internal in a graph of total volume twoM.
func phi(vol, internal int64, twoM float64) float64 {
	cut := float64(vol - 2*internal)
	denom := float64(vol)
	if other := twoM - float64(vol); other < denom {
		denom = other
	}
	if denom <= 0 {
		return 0
	}
	return cut / denom
}
