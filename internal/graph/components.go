package graph

import (
	"sync/atomic"

	"repro/internal/par"
)

// Components labels every vertex with the smallest vertex id in its
// connected component using p workers and returns the label array together
// with the number of components. Isolated vertices form their own
// components. The kernel is min-label propagation with pointer jumping
// (Shiloach–Vishkin style hooking), the standard substitute for the serial
// union-find the paper's R-MAT pipeline needs when extracting the largest
// component (§V-B).
func Components(p int, g *Graph) (comp []int64, count int64) {
	n := int(g.NumVertices())
	comp = make([]int64, n)
	par.For(p, n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			comp[x] = int64(x)
		}
	})
	if n == 0 {
		return comp, 0
	}
	for {
		var changed int64
		// Hooking: pull each edge's endpoints to the smaller current label.
		par.ForDynamic(p, n, 0, func(lo, hi int) {
			local := false
			for x := lo; x < hi; x++ {
				for e := g.Start[x]; e < g.End[x]; e++ {
					u, v := int64(x), g.V[e]
					cu := atomic.LoadInt64(&comp[u])
					cv := atomic.LoadInt64(&comp[v])
					switch {
					case cu < cv:
						if atomicMin(&comp[cv], cu) || atomicMin(&comp[v], cu) {
							local = true
						}
					case cv < cu:
						if atomicMin(&comp[cu], cv) || atomicMin(&comp[u], cv) {
							local = true
						}
					}
				}
			}
			if local {
				atomic.StoreInt64(&changed, 1)
			}
		})
		// Pointer jumping: compress label chains so the next hooking round
		// sees near-final labels.
		par.For(p, n, func(lo, hi int) {
			for x := lo; x < hi; x++ {
				c := atomic.LoadInt64(&comp[x])
				for {
					cc := atomic.LoadInt64(&comp[c])
					if cc == c {
						break
					}
					c = cc
				}
				atomic.StoreInt64(&comp[x], c)
			}
		})
		if atomic.LoadInt64(&changed) == 0 {
			break
		}
	}
	var k int64
	for x := 0; x < n; x++ {
		if comp[x] == int64(x) {
			k++
		}
	}
	return comp, k
}

// LargestComponent extracts the subgraph induced by the largest connected
// component of g, renumbering its vertices to [0, k). It returns the new
// graph and origID, where origID[newVertex] is the vertex's id in g. Ties
// between equally large components break toward the smaller root id. The
// R-MAT evaluation pipeline (§V-B) generates a graph, accumulates duplicate
// edges, "and then extract[s] the largest connected component".
func LargestComponent(p int, g *Graph) (*Graph, []int64) {
	n := int(g.NumVertices())
	if n == 0 {
		return NewEmpty(0), nil
	}
	comp, _ := Components(p, g)
	size := make([]int64, n)
	par.For(p, n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			atomicAdd(&size[comp[x]], 1)
		}
	})
	_, root := par.MaxInt64(p, size)
	target := int64(root)

	// Renumber member vertices by exclusive prefix sum over membership.
	newID := make([]int64, n)
	par.For(p, n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			if comp[x] == target {
				newID[x] = 1
			}
		}
	})
	k := par.ExclusiveSumInt64(p, newID)
	origID := make([]int64, k)
	par.For(p, n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			if comp[x] == target {
				origID[newID[x]] = int64(x)
			}
		}
	})

	// Gather and relabel member edges. The component is edge-closed, so an
	// edge belongs iff its bucket owner does.
	var edgeCount int64
	par.ForDynamic(p, n, 0, func(lo, hi int) {
		var local int64
		for x := lo; x < hi; x++ {
			if comp[x] == target {
				local += g.End[x] - g.Start[x]
			}
		}
		atomicAdd(&edgeCount, local)
	})
	edges := make([]Edge, edgeCount)
	var cursor int64
	par.ForDynamic(p, n, 0, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			if comp[x] != target {
				continue
			}
			cnt := g.End[x] - g.Start[x]
			if cnt == 0 {
				continue
			}
			base := atomicAdd(&cursor, cnt) - cnt
			for e := g.Start[x]; e < g.End[x]; e++ {
				edges[base] = Edge{newID[x], newID[g.V[e]], g.W[e]}
				base++
			}
		}
	})
	sub := MustBuild(p, k, edges)
	// Carry over self-loop weights of member vertices.
	par.For(p, n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			if comp[x] == target && g.Self[x] != 0 {
				sub.Self[newID[x]] += g.Self[x]
			}
		}
	})
	return sub, origID
}
