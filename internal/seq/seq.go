// Package seq is a deliberately simple sequential implementation of the
// whole agglomerative algorithm, written independently of the parallel
// kernels: plain maps and slices, no worker pools, no atomics, no buckets.
// It is the analogue of the paper's observation that "ignoring the parallel
// directives produces correct, sequential C code" (§IV) — and because the
// parallel engine's matching discipline (mutually-best edges under a strict
// total order) is a deterministic function of the scored graph, seq.Detect
// must produce *identical* communities to core.DetectContext. The cross-check
// tests turn that into the library's strongest correctness oracle.
package seq

import (
	"sort"

	"repro/internal/graph"
)

// Result of a sequential detection run.
type Result struct {
	CommunityOf    []int64
	NumCommunities int64
	Phases         int
	FinalCoverage  float64
	Modularity     float64
}

// Options mirrors the subset of engine options the oracle supports.
type Options struct {
	// MinCoverage stops once the internal edge-weight fraction reaches it.
	MinCoverage float64
	// MaxPhases caps contraction phases; 0 = unlimited.
	MaxPhases int
}

// community is one node of the sequential community graph.
type community struct {
	self int64           // internal edge weight
	adj  map[int64]int64 // neighbor community -> edge weight
}

// Detect runs the algorithm sequentially with modularity scoring. It scores
// with the bits of scoring.Modularity.Edge, so near-ties order the same way
// here as in the parallel engine.
func Detect(g *graph.Graph, opt Options) *Result {
	n := g.NumVertices()
	res := &Result{CommunityOf: make([]int64, n)}
	for i := range res.CommunityOf {
		res.CommunityOf[i] = int64(i)
	}

	// Build the initial community graph.
	comms := make([]community, n)
	for i := range comms {
		comms[i] = community{self: g.Self[i], adj: map[int64]int64{}}
	}
	var totW int64
	g.ForEachEdge(func(_ int64, u, v, w int64) {
		comms[u].adj[v] += w
		comms[v].adj[u] += w
		totW += w
	})
	for i := range comms {
		totW += comms[i].self
	}
	if totW == 0 {
		res.NumCommunities = n
		return res
	}
	m := float64(totW)

	// ids holds the live community ids in engine order: after every
	// contraction, the engine renumbers pairs densely by smaller endpoint,
	// which is exactly "sort the surviving leaders by old id".
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}

	for {
		if opt.MaxPhases > 0 && res.Phases >= opt.MaxPhases {
			break
		}
		if opt.MinCoverage > 0 && coverage(comms, ids, totW) >= opt.MinCoverage {
			break
		}
		// Degrees (volumes) of live communities.
		deg := map[int64]int64{}
		for _, c := range ids {
			d := 2 * comms[c].self
			for _, w := range comms[c].adj {
				d += w
			}
			deg[c] = d
		}
		// Score all edges; collect the positive ones once per pair.
		type scored struct {
			key  key
			a, b int64
		}
		var edges []scored
		// The floating-point expression of scoring.Modularity.Edge, with
		// its reciprocals hoisted the same way.
		inv := 1 / m
		half := 1 / (2 * m * m)
		for _, c := range ids {
			for d, w := range comms[c].adj {
				if c > d {
					continue
				}
				s := float64(w)*inv - float64(deg[c])*float64(deg[d])*half
				if s > 0 {
					first, second := graph.StoredOrder(c, d)
					edges = append(edges, scored{makeKey(s, first, second), c, d})
				}
			}
		}
		if len(edges) == 0 {
			break
		}
		// Greedy matching in decreasing total order — the sequential
		// equivalent of the parallel mutually-best fixpoint.
		sort.Slice(edges, func(i, j int) bool { return edges[j].key.less(edges[i].key) })
		match := map[int64]int64{}
		for _, e := range edges {
			if _, ok := match[e.a]; ok {
				continue
			}
			if _, ok := match[e.b]; ok {
				continue
			}
			match[e.a] = e.b
			match[e.b] = e.a
		}
		if len(match) == 0 {
			break
		}
		// Contract: leaders keep their id, partners merge in; then all
		// surviving ids renumber densely in increasing old-id order.
		for _, c := range ids {
			p, ok := match[c]
			if !ok || p < c {
				continue // not matched, or c is the absorbed side
			}
			// Merge p into c.
			comms[c].self += comms[p].self + comms[c].adj[p]
			delete(comms[c].adj, p)
			delete(comms[p].adj, c)
			for x, w := range comms[p].adj {
				delete(comms[x].adj, p)
				comms[c].adj[x] += w
				comms[x].adj[c] = comms[c].adj[x]
			}
			comms[p].adj = nil
		}
		// Survivors, renumbered.
		var live []int64
		for _, c := range ids {
			if p, ok := match[c]; ok && p < c {
				continue
			}
			live = append(live, c)
		}
		newID := map[int64]int64{}
		for i, c := range live {
			newID[c] = int64(i)
		}
		resolve := func(c int64) int64 {
			if p, ok := match[c]; ok && p < c {
				return newID[p]
			}
			return newID[c]
		}
		for v := range res.CommunityOf {
			res.CommunityOf[v] = resolve(res.CommunityOf[v])
		}
		// Rebuild the community array under the dense numbering.
		next := make([]community, len(live))
		for i, c := range live {
			adj := make(map[int64]int64, len(comms[c].adj))
			for x, w := range comms[c].adj {
				adj[newID[x]] += w
			}
			next[i] = community{self: comms[c].self, adj: adj}
		}
		comms = next
		ids = ids[:len(live)]
		for i := range ids {
			ids[i] = int64(i)
		}
		res.Phases++
	}

	res.NumCommunities = int64(len(ids))
	res.FinalCoverage = coverage(comms, ids, totW)
	var q float64
	for _, c := range ids {
		d := 2 * comms[c].self
		for _, w := range comms[c].adj {
			d += w
		}
		dv := float64(d) / (2 * m)
		q += float64(comms[c].self)/m - dv*dv
	}
	res.Modularity = q
	return res
}

func coverage(comms []community, ids []int64, totW int64) float64 {
	if totW == 0 {
		return 0
	}
	var in int64
	for _, c := range ids {
		in += comms[c].self
	}
	return float64(in) / float64(totW)
}

// key replicates the matching package's total order exactly (score, then a
// hash of the stored endpoints, then the endpoints), so ties resolve the
// same way in both implementations.
type key struct {
	score         float64
	tie           uint64
	first, second int64
}

func makeKey(score float64, first, second int64) key {
	h := uint64(first)<<32 ^ uint64(second)
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return key{score, h, first, second}
}

func (k key) less(o key) bool {
	if k.score != o.score {
		return k.score < o.score
	}
	if k.tie != o.tie {
		return k.tie < o.tie
	}
	if k.first != o.first {
		return k.first < o.first
	}
	return k.second < o.second
}
