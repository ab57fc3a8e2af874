// Package refine implements greedy modularity refinement by local vertex
// moves — the extension the paper names as an area of active work
// ("Incorporating refinement into our parallel algorithm", §II). Matching-
// based agglomeration only ever merges whole communities, so early
// mis-merges can never be undone; a refinement pass lets individual
// vertices migrate to the neighboring community with the best modularity
// gain, recovering much of the gap to move-based methods like Louvain.
//
// The moves are a rule on PLP's synchronous sweep loop (plp.Run), the
// synchronised Louvain move of Chiêm et al. (see PAPERS.md): each active
// vertex proposes its best community from the previous sweep's labels and
// volumes, PLP's commit applies the proposals, and the volumes are rebuilt
// by an exact int64 roll-up. The result is the same at every thread count and
// on every run (seq.Refine is its exact oracle). Moves made at once can still
// lose modularity, so Refine returns the better of the partitions before and
// after, making the operation monotone by construction.
package refine

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/plp"
)

// maxSweeps bounds a run: it stops the rare vertices that keep flipping.
const maxSweeps = 64

// Result of a refinement run.
type Result struct {
	// CommunityOf is the refined partition with dense ids in
	// [0, NumCommunities).
	CommunityOf    []int64
	NumCommunities int64
	// Moves counts accepted vertex migrations; Sweeps counts full passes.
	Moves  int64
	Sweeps int
	// ModularityBefore and ModularityAfter bracket the improvement;
	// After >= Before always holds.
	ModularityBefore float64
	ModularityAfter  float64
}

// Refine improves the partition comm (ids dense in [0, k)) of g by greedy
// vertex moves on ec's workers. The input slice is not modified. When ec's
// context is cancelled the sweeps stop early and the
// better-of-before-and-after contract still holds: refinement is an
// optimization, so cancellation degrades quality, never correctness, and no
// error is returned.
func Refine(ec *exec.Ctx, g *graph.Graph, comm []int64, k int64) (*Result, error) {
	n := g.NumVertices()
	if err := metrics.ValidatePartition(comm, n, k); err != nil {
		return nil, fmt.Errorf("refine: %w", err)
	}
	p := ec.Threads()
	res := &Result{ModularityBefore: metrics.Modularity(p, g, comm, k)}
	m := float64(g.TotalWeight(p))
	if m == 0 {
		res.CommunityOf = append([]int64{}, comm...)
		res.NumCommunities = k
		res.ModularityAfter = res.ModularityBefore
		return res, nil
	}

	deg, vol := g.WeightedDegrees(p), make([]int64, k)
	var stripes []int64
	rebuild := func(labels []int64) { stripes = ec.Rollup(vol, deg, labels, stripes) }
	rebuild(comm)
	run := plp.Run(ec, g, comm, int(k), plp.Rule{
		Propose: func(c *graph.CSR, labels, pending, w, list []int64) {
			propose(c, labels, pending, w, list, deg, vol, m)
		},
		Committed: rebuild,
		Sweep:     obs.KernelRefineSweep, Compute: "refine/compute", Commit: "refine/commit",
	}, maxSweeps, nil)
	res.Sweeps = run.Sweeps
	for _, c := range run.Changed {
		res.Moves += c
	}

	refined, rk := metrics.Densify(run.Labels)
	after := metrics.Modularity(p, g, refined, rk)
	if after >= res.ModularityBefore {
		res.CommunityOf = refined
		res.NumCommunities = rk
		res.ModularityAfter = after
	} else {
		// Simultaneous moves lost modularity: keep the input partition.
		res.CommunityOf = append([]int64(nil), comm...)
		res.NumCommunities = k
		res.ModularityAfter = res.ModularityBefore
	}
	return res, nil
}

// gain is the modularity gain, up to a term common to every choice, of a
// vertex of weighted degree dv joining a community of volume vol (the
// vertex's own degree excluded) to which it has edge weight w.
func gain(w, vol int64, dv, m float64) float64 {
	return float64(w)/m - dv*float64(vol)/(2*m*m)
}

// propose is the rule's phase A: each vertex of list sums its edge weight to
// every neighboring community into the stripe w and proposes the best gain.
// Staying wins ties, then the smaller id, a total order the neighbor order
// cannot change. Each community's entry is zeroed once evaluated (weights are
// positive, so zero means seen); the current community's is zeroed last.
func propose(c *graph.CSR, labels, pending, w, list, deg, vol []int64, m float64) {
	for _, v := range list {
		adj, wgt := c.Neighbors(v)
		for j, u := range adj {
			w[labels[u]] += wgt[j]
		}
		cv, dv := labels[v], float64(deg[v])
		best, bestGain := cv, gain(w[cv], vol[cv]-deg[v], dv, m)
		for _, u := range adj {
			d := labels[u]
			if d == cv || w[d] == 0 {
				continue
			}
			gd := gain(w[d], vol[d], dv, m)
			w[d] = 0
			if gd > bestGain || (gd == bestGain && best != cv && d < best) {
				best, bestGain = d, gd
			}
		}
		w[cv] = 0
		pending[v] = best
	}
}
