package seq

// The sequential side of refinement: refine.Refine runs its moves on PLP's
// parallel sweep loop, and Refine here repeats the same synchronous rule
// with plain maps and a vertex loop, so the refinement tests can demand the
// parallel kernel's exact partition at every thread count.

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/metrics"
)

// RefineResult is Refine's answer: the fields of refine.Result that do not
// depend on how modularity is summed.
type RefineResult struct {
	CommunityOf    []int64
	NumCommunities int64
	Sweeps         int
	Moves          int64
}

// Refine refines the partition comm (ids dense in [0, k)) of g by
// synchronous vertex moves. In each sweep every active vertex proposes, from
// the previous sweep's labels and community volumes, the neighboring
// community d with the best gain w(v→d)/m − deg_v·vol_d/(2m²), v's own
// degree left out of its current community's volume; staying wins ties and
// a tie between two other communities goes to the smaller id. Then every
// proposal commits at once, except that odd sweeps block moves to a larger
// id. A vertex is active in the first sweep when it has a neighbor and
// later when it or a neighbor moved, or its move was blocked. Sweeps stop
// when no vertex is active, or after 64. The result is densified in order
// of first appearance and kept only when its modularity is no lower than
// the input's.
func Refine(g *graph.Graph, comm []int64, k int64) *RefineResult {
	n := g.NumVertices()
	adj := make([]map[int64]int64, n)
	deg := make([]int64, n)
	var totW int64
	for v := range adj {
		adj[v] = map[int64]int64{}
		deg[v] = 2 * g.Self[v]
		totW += g.Self[v]
	}
	g.ForEachEdge(func(_ int64, u, v, w int64) {
		adj[u][v] += w
		adj[v][u] += w
		deg[u] += w
		deg[v] += w
		totW += w
	})
	res := &RefineResult{CommunityOf: slices.Clone(comm), NumCommunities: k}
	if totW == 0 {
		return res
	}
	m := float64(totW)
	gain := func(w, vol int64, dv float64) float64 {
		return float64(w)/m - dv*float64(vol)/(2*m*m)
	}

	cur := slices.Clone(comm)
	active := make([]bool, n)
	for v := range adj {
		active[v] = len(adj[v]) > 0
	}
	proposed := make([]int64, n)
	for ; res.Sweeps < 64 && slices.Contains(active, true); res.Sweeps++ {
		vol := make([]int64, k)
		for v, c := range cur {
			vol[c] += deg[v]
		}
		for v := range cur {
			if !active[v] {
				continue
			}
			toComm := map[int64]int64{}
			for u, w := range adj[v] {
				toComm[cur[u]] += w
			}
			cv, dv := cur[v], float64(deg[v])
			best, bestGain := cv, gain(toComm[cv], vol[cv]-deg[v], dv)
			for d, w := range toComm {
				if d == cv {
					continue
				}
				if gd := gain(w, vol[d], dv); gd > bestGain || (gd == bestGain && best != cv && d < best) {
					best, bestGain = d, gd
				}
			}
			proposed[v] = best
		}
		next := make([]bool, n)
		for v := range cur {
			if !active[v] || proposed[v] == cur[v] {
				continue
			}
			next[v] = true
			if res.Sweeps%2 == 1 && proposed[v] > cur[v] {
				continue
			}
			cur[v] = proposed[v]
			res.Moves++
			for u := range adj[v] {
				next[u] = true
			}
		}
		active = next
	}

	refined, rk := metrics.Densify(cur)
	if metrics.Modularity(1, g, refined, rk) >= metrics.Modularity(1, g, comm, k) {
		res.CommunityOf, res.NumCommunities = refined, rk
	}
	return res
}
