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

// Scoring sweeps are edge-parallel with no per-vertex state, so they accept
// hub splitting: when the engine has installed an edge-balanced partition
// for the level (exec.Balanced), each worker walks one par.Span — a vertex
// range whose first and last buckets may be clamped to partial edge runs —
// and otherwise the sweep falls back to dynamic chunks over whole vertices.
// Every sweep body is therefore written against (lo, hi, eloFirst, ehiLast):
// dynamic chunks pass the unclamped g.Start[lo] / g.End[hi-1], making the
// clamps no-ops.

// Scorer computes per-edge merge scores for a community graph.
//
// Score must fill scores[e] for every live edge index e of g (the slice is
// as long as g's edge arrays; entries at gap positions are ignored). deg is
// g.WeightedDegrees — the community volumes d_c = 2·self_c + Σ incident
// weight — and totalWeight is the *input* graph's total edge weight m,
// which contraction preserves. Implementations must be safe for concurrent
// use and must not retain the slices.
type Scorer interface {
	Name() string
	Score(ec *exec.Ctx, g *graph.Graph, deg []int64, totalWeight int64, scores []float64)
}

// Fused is an optional Scorer extension that folds the engine's three edge
// sweeps — score fill, the MaxCommunitySize mask, and the HasPositive
// termination scan — into one pass over the edge array. sizes is the
// per-community original-vertex count and maxSize the cap (0 disables the
// mask; sizes may then be nil). ScoreFused fills scores exactly as Score
// would, overwrites masked entries with -1, and reports whether any
// unmasked live edge scored strictly positive. The engine type-asserts for
// this interface and falls back to the three separate sweeps for plain
// Scorers, so metric plugins stay a one-method implementation.
//
// masked, when non-nil, receives the number of edges the size cap masked:
// implementations count into chunk-locals and flush with one atomic add per
// chunk (never per edge), which is how the engine's observability layer
// taps the sweep without this package depending on it. nil disables the
// count at the cost of one predictable branch per chunk.
type Fused interface {
	ScoreFused(ec *exec.Ctx, g *graph.Graph, deg []int64, totalWeight int64, scores []float64, sizes []int64, maxSize int64, masked *int64) bool
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

// Score implements Scorer.
func (Modularity) Score(ec *exec.Ctx, g *graph.Graph, deg []int64, totalWeight int64, scores []float64) {
	if totalWeight <= 0 {
		scoreConstant(ec, g, scores, 0)
		return
	}
	m := float64(totalWeight)
	inv := 1 / m
	half := 1 / (2 * m * m)
	n := int(g.NumVertices())
	if pt := ec.Balanced(n, g.NumEdges()); pt != nil {
		ec.ForSpans("score/fill", pt, func(_ int, sp par.Span) {
			modularityFill(g, deg, scores, inv, half, sp.LoV, sp.HiV, sp.LoE, sp.HiE)
		})
		return
	}
	ec.ForDynamic(n, 0, func(lo, hi int) {
		modularityFill(g, deg, scores, inv, half, lo, hi, g.Start[lo], g.End[hi-1])
	})
}

func modularityFill(g *graph.Graph, deg []int64, scores []float64, inv, half float64, lo, hi int, eloFirst, ehiLast int64) {
	for x := lo; x < hi; x++ {
		elo, ehi := g.Start[x], g.End[x]
		if x == lo {
			elo = eloFirst
		}
		if x == hi-1 {
			ehi = ehiLast
		}
		du := float64(deg[x])
		for e := elo; e < ehi; e++ {
			scores[e] = float64(g.W[e])*inv - du*float64(deg[g.V[e]])*half
		}
	}
}

// ScoreFused implements Fused: the modularity fill, size mask, and
// positive-edge scan in a single sweep.
func (Modularity) ScoreFused(ec *exec.Ctx, g *graph.Graph, deg []int64, totalWeight int64, scores []float64, sizes []int64, maxSize int64, masked *int64) bool {
	if totalWeight <= 0 {
		scoreConstant(ec, g, scores, 0)
		return false
	}
	m := float64(totalWeight)
	inv := 1 / m
	half := 1 / (2 * m * m)
	n := int(g.NumVertices())
	if ec.Serial(n) {
		positive := false
		var nMasked int64
		for x := 0; x < n; x++ {
			su, du := sizes[x], float64(deg[x])
			for e := g.Start[x]; e < g.End[x]; e++ {
				v := g.V[e]
				if maxSize > 0 && su+sizes[v] > maxSize {
					scores[e] = -1
					nMasked++
					continue
				}
				s := float64(g.W[e])*inv - du*float64(deg[v])*half
				scores[e] = s
				positive = positive || s > 0
			}
		}
		flushMasked(masked, nMasked)
		return positive
	}
	var found int64
	if pt := ec.Balanced(n, g.NumEdges()); pt != nil {
		ec.ForSpans("score/fused", pt, func(_ int, sp par.Span) {
			positive, nMasked := modularityFused(g, deg, scores, sizes, inv, half, maxSize, sp.LoV, sp.HiV, sp.LoE, sp.HiE)
			flushMasked(masked, nMasked)
			if positive {
				atomicStoreOne(&found)
			}
		})
		return found != 0
	}
	ec.ForDynamic(n, 0, func(lo, hi int) {
		positive, nMasked := modularityFused(g, deg, scores, sizes, inv, half, maxSize, lo, hi, g.Start[lo], g.End[hi-1])
		flushMasked(masked, nMasked)
		if positive {
			atomicStoreOne(&found)
		}
	})
	return found != 0
}

func modularityFused(g *graph.Graph, deg []int64, scores []float64, sizes []int64, inv, half float64, maxSize int64, lo, hi int, eloFirst, ehiLast int64) (positive bool, nMasked int64) {
	for x := lo; x < hi; x++ {
		elo, ehi := g.Start[x], g.End[x]
		if x == lo {
			elo = eloFirst
		}
		if x == hi-1 {
			ehi = ehiLast
		}
		su, du := sizes[x], float64(deg[x])
		for e := elo; e < ehi; e++ {
			v := g.V[e]
			if maxSize > 0 && su+sizes[v] > maxSize {
				scores[e] = -1
				nMasked++
				continue
			}
			s := float64(g.W[e])*inv - du*float64(deg[v])*half
			scores[e] = s
			positive = positive || s > 0
		}
	}
	return positive, nMasked
}

// Conductance scores an edge {c, d} with the negated change in the sum of
// community conductances, converting the minimization into the
// maximization the engine performs (§III):
//
//	score = φ(c) + φ(d) − φ(c ∪ d),
//
// where φ(c) = cut_c / min(vol_c, 2m − vol_c), cut_c = vol_c − 2·self_c.
// Isolated communities (zero volume or zero complement) contribute φ = 0.
type Conductance struct{}

// Name implements Scorer.
func (Conductance) Name() string { return "conductance" }

// Score implements Scorer.
func (Conductance) Score(ec *exec.Ctx, g *graph.Graph, deg []int64, totalWeight int64, scores []float64) {
	if totalWeight <= 0 {
		scoreConstant(ec, g, scores, 0)
		return
	}
	twoM := 2 * float64(totalWeight)
	phi := func(vol, internal int64) float64 {
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
	n := int(g.NumVertices())
	if pt := ec.Balanced(n, g.NumEdges()); pt != nil {
		ec.ForSpans("score/fill", pt, func(_ int, sp par.Span) {
			conductanceFill(g, deg, scores, phi, sp.LoV, sp.HiV, sp.LoE, sp.HiE)
		})
		return
	}
	ec.ForDynamic(n, 0, func(lo, hi int) {
		conductanceFill(g, deg, scores, phi, lo, hi, g.Start[lo], g.End[hi-1])
	})
}

func conductanceFill(g *graph.Graph, deg []int64, scores []float64, phi func(vol, internal int64) float64, lo, hi int, eloFirst, ehiLast int64) {
	for x := lo; x < hi; x++ {
		elo, ehi := g.Start[x], g.End[x]
		if x == lo {
			elo = eloFirst
		}
		if x == hi-1 {
			ehi = ehiLast
		}
		u := int64(x)
		for e := elo; e < ehi; e++ {
			v, w := g.V[e], g.W[e]
			phiU := phi(deg[u], g.Self[u])
			phiV := phi(deg[v], g.Self[v])
			merged := phi(deg[u]+deg[v], g.Self[u]+g.Self[v]+w)
			scores[e] = phiU + phiV - merged
		}
	}
}

// ScoreFused implements Fused for the conductance metric.
func (Conductance) ScoreFused(ec *exec.Ctx, g *graph.Graph, deg []int64, totalWeight int64, scores []float64, sizes []int64, maxSize int64, masked *int64) bool {
	if totalWeight <= 0 {
		scoreConstant(ec, g, scores, 0)
		return false
	}
	twoM := 2 * float64(totalWeight)
	phi := func(vol, internal int64) float64 {
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
	n := int(g.NumVertices())
	if ec.Serial(n) {
		positive := false
		var nMasked int64
		for x := 0; x < n; x++ {
			u := int64(x)
			for e := g.Start[x]; e < g.End[x]; e++ {
				v, w := g.V[e], g.W[e]
				if maxSize > 0 && sizes[u]+sizes[v] > maxSize {
					scores[e] = -1
					nMasked++
					continue
				}
				phiU := phi(deg[u], g.Self[u])
				phiV := phi(deg[v], g.Self[v])
				s := phiU + phiV - phi(deg[u]+deg[v], g.Self[u]+g.Self[v]+w)
				scores[e] = s
				positive = positive || s > 0
			}
		}
		flushMasked(masked, nMasked)
		return positive
	}
	var found int64
	if pt := ec.Balanced(n, g.NumEdges()); pt != nil {
		ec.ForSpans("score/fused", pt, func(_ int, sp par.Span) {
			positive, nMasked := conductanceFused(g, deg, scores, sizes, phi, maxSize, sp.LoV, sp.HiV, sp.LoE, sp.HiE)
			flushMasked(masked, nMasked)
			if positive {
				atomicStoreOne(&found)
			}
		})
		return found != 0
	}
	ec.ForDynamic(n, 0, func(lo, hi int) {
		positive, nMasked := conductanceFused(g, deg, scores, sizes, phi, maxSize, lo, hi, g.Start[lo], g.End[hi-1])
		flushMasked(masked, nMasked)
		if positive {
			atomicStoreOne(&found)
		}
	})
	return found != 0
}

func conductanceFused(g *graph.Graph, deg []int64, scores []float64, sizes []int64, phi func(vol, internal int64) float64, maxSize int64, lo, hi int, eloFirst, ehiLast int64) (positive bool, nMasked int64) {
	for x := lo; x < hi; x++ {
		elo, ehi := g.Start[x], g.End[x]
		if x == lo {
			elo = eloFirst
		}
		if x == hi-1 {
			ehi = ehiLast
		}
		u := int64(x)
		for e := elo; e < ehi; e++ {
			v, w := g.V[e], g.W[e]
			if maxSize > 0 && sizes[u]+sizes[v] > maxSize {
				scores[e] = -1
				nMasked++
				continue
			}
			phiU := phi(deg[u], g.Self[u])
			phiV := phi(deg[v], g.Self[v])
			s := phiU + phiV - phi(deg[u]+deg[v], g.Self[u]+g.Self[v]+w)
			scores[e] = s
			positive = positive || s > 0
		}
	}
	return positive, nMasked
}

// flushMasked adds a chunk's masked-edge count to the optional tap with one
// atomic add; the nil check is the disabled observability path.
func flushMasked(masked *int64, n int64) {
	if masked != nil && n != 0 {
		atomic.AddInt64(masked, n)
	}
}

// scoreConstant fills every live edge's score with c.
func scoreConstant(ec *exec.Ctx, g *graph.Graph, scores []float64, c float64) {
	n := int(g.NumVertices())
	if pt := ec.Balanced(n, g.NumEdges()); pt != nil {
		ec.ForSpans("score/fill", pt, func(_ int, sp par.Span) {
			constantFill(g, scores, c, sp.LoV, sp.HiV, sp.LoE, sp.HiE)
		})
		return
	}
	ec.ForDynamic(n, 0, func(lo, hi int) {
		constantFill(g, scores, c, lo, hi, g.Start[lo], g.End[hi-1])
	})
}

func constantFill(g *graph.Graph, scores []float64, c float64, lo, hi int, eloFirst, ehiLast int64) {
	for x := lo; x < hi; x++ {
		elo, ehi := g.Start[x], g.End[x]
		if x == lo {
			elo = eloFirst
		}
		if x == hi-1 {
			ehi = ehiLast
		}
		for e := elo; e < ehi; e++ {
			scores[e] = c
		}
	}
}

// HasPositive reports whether any live edge of g has a strictly positive
// score; if none does the engine has reached a local maximum and terminates
// (§III).
func HasPositive(ec *exec.Ctx, g *graph.Graph, scores []float64) bool {
	n := int(g.NumVertices())
	var found int64
	if pt := ec.Balanced(n, g.NumEdges()); pt != nil {
		ec.ForSpans("score/haspos", pt, func(_ int, sp par.Span) {
			if hasPositive(g, scores, sp.LoV, sp.HiV, sp.LoE, sp.HiE) {
				atomicStoreOne(&found)
			}
		})
		return found != 0
	}
	ec.ForDynamic(n, 0, func(lo, hi int) {
		if hasPositive(g, scores, lo, hi, g.Start[lo], g.End[hi-1]) {
			atomicStoreOne(&found)
		}
	})
	return found != 0
}

func hasPositive(g *graph.Graph, scores []float64, lo, hi int, eloFirst, ehiLast int64) bool {
	for x := lo; x < hi; x++ {
		elo, ehi := g.Start[x], g.End[x]
		if x == lo {
			elo = eloFirst
		}
		if x == hi-1 {
			ehi = ehiLast
		}
		for e := elo; e < ehi; e++ {
			if scores[e] > 0 {
				return true
			}
		}
	}
	return false
}
