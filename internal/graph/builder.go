package graph

import (
	"fmt"

	"repro/internal/par"
)

// Build assembles a Graph from raw undirected edges using p workers. The
// input may contain edges in either orientation, repeated edges (their
// weights accumulate, as the paper does for R-MAT output), self-loops
// (folded into the Self array), and zero- or negative-weight entries are
// rejected. Build leaves the input slice in an unspecified order.
//
// The pipeline is the parallel analogue of the paper's construction: orient
// every triple by the parity hash, sort the triple array by (first, second),
// accumulate duplicates with a segmented scan, then cut contiguous buckets.
func Build(p int, numVertices int64, edges []Edge) (*Graph, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", numVertices)
	}
	g := &Graph{}
	g.ResizeVertices(numVertices)
	if len(edges) == 0 {
		return g, nil
	}

	// Pass 1: validate and orient. Self-loops keep U == V and are folded
	// into g.Self during the scatter below.
	var bad int64
	par.For(p, len(edges), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.U < 0 || e.U >= numVertices || e.V < 0 || e.V >= numVertices || e.W <= 0 {
				atomicAdd(&bad, 1)
				continue
			}
			if e.U != e.V {
				f, s := StoredOrder(e.U, e.V)
				edges[i] = Edge{f, s, e.W}
			}
		}
	})
	if bad != 0 {
		return nil, fmt.Errorf("graph: %d edges with endpoints outside [0,%d) or non-positive weight: %w",
			bad, numVertices, ErrVertexRange)
	}

	// Pass 2: sort by (U, V). Self-loops (U == V) sort adjacent to the
	// vertex's bucket and are peeled off during accumulation. A linear
	// presort check skips the O(E log E) pass for callers that feed triples
	// already in stored order, such as a graph's own Edges().
	if !sortedByUV(p, edges) {
		par.Sort(p, edges, func(a, b Edge) bool {
			if a.U != b.U {
				return a.U < b.U
			}
			return a.V < b.V
		})
	}

	// Pass 3: segmented accumulation. head[i] = 1 iff edges[i] starts a new
	// (U, V) group of non-self edges; self-loops get head 0 and are routed
	// to g.Self.
	n := len(edges)
	head := make([]int64, n)
	par.For(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.U != e.V && (i == 0 || edges[i-1].U != e.U || edges[i-1].V != e.V) {
				head[i] = 1
			}
		}
	})
	// head becomes the exclusive prefix sum: the output slot of each group.
	unique := par.ExclusiveSumInt64(p, head)

	// The scatter accumulates weights with fetch-and-add into the fresh
	// (zeroed) W; exactly one group leader writes each U and V slot.
	g.ResizeEdges(unique)
	par.For(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.U == e.V {
				atomicAdd(&g.Self[e.U], e.W)
				continue
			}
			// head[i] now holds the exclusive prefix: for a group's first
			// member it is the group's output slot; for continuations it is
			// the slot plus one (their own head flag was zero but the
			// leader's one has been counted).
			slot := head[i]
			isStart := i == 0 || edges[i-1].U != e.U || edges[i-1].V != e.V
			if !isStart {
				slot--
			}
			// Only the group leader writes the endpoints (exactly one leader
			// per slot, so the store is race-free); every member accumulates
			// its weight with fetch-and-add.
			if isStart {
				g.U[slot] = e.U
				g.V[slot] = e.V
			}
			atomicAdd(&g.W[slot], e.W)
		}
	})

	// Pass 4: cut buckets. Unique edges are sorted by U, so bucket borders
	// are the positions where U changes.
	par.For(p, int(unique), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			u := g.U[i]
			if i == 0 || g.U[i-1] != u {
				g.Start[u] = int64(i)
			}
			if i == int(unique)-1 || g.U[i+1] != u {
				g.End[u] = int64(i) + 1
			}
		}
	})
	g.setCounts(numVertices, unique)
	return g, nil
}

// sortedByUV reports whether edges is already ordered by (U, V). One cheap
// bandwidth-bound pass against an O(E log E) sort; out-of-order chunks set a
// shared flag so later chunks bail at their first probe.
func sortedByUV(p int, edges []Edge) bool {
	var unsorted int64
	par.For(p, len(edges)-1, func(lo, hi int) {
		if atomicLoad(&unsorted) != 0 {
			return
		}
		for i := lo; i < hi; i++ {
			a, b := edges[i], edges[i+1]
			if a.U > b.U || (a.U == b.U && a.V > b.V) {
				atomicAdd(&unsorted, 1)
				return
			}
		}
	})
	return unsorted == 0
}

// MustBuild is Build for tests and generators with known-good input; it
// panics on error.
func MustBuild(p int, numVertices int64, edges []Edge) *Graph {
	g, err := Build(p, numVertices, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// FromAdjacency builds a graph from an unweighted adjacency list given as
// neighbor slices (each undirected edge may appear in one or both
// directions). Convenient for hand-written test graphs.
func FromAdjacency(adj [][]int64) (*Graph, error) {
	n := int64(len(adj))
	var edges []Edge
	for u, nbrs := range adj {
		for _, v := range nbrs {
			if int64(u) <= v {
				edges = append(edges, Edge{int64(u), v, 1})
			}
		}
	}
	// Deduplicate edges listed in both directions: Build would otherwise
	// double their weights.
	par.Sort(1, edges, func(a, b Edge) bool {
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	out := edges[:0]
	for i, e := range edges {
		if i > 0 && edges[i-1].U == e.U && edges[i-1].V == e.V {
			continue
		}
		out = append(out, e)
	}
	return Build(1, n, out)
}

// Compact rewrites g so its buckets are stored contiguously in increasing
// vertex order with no gaps, using p workers. Contraction kernels may leave
// gaps (the paper's non-contiguous layout); Compact restores the dense
// layout for I/O or space measurement. The graph is modified in place.
func Compact(p int, g *Graph) {
	n := int(g.n)
	lens := make([]int64, n)
	par.For(p, n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			lens[x] = g.End[x] - g.Start[x]
		}
	})
	total := par.ExclusiveSumInt64(p, lens) // lens becomes new Start offsets
	nu := make([]int64, total)
	nv := make([]int64, total)
	nw := make([]int64, total)
	par.ForDynamic(p, n, 0, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			dst := lens[x]
			for e := g.Start[x]; e < g.End[x]; e++ {
				nu[dst] = g.U[e]
				nv[dst] = g.V[e]
				nw[dst] = g.W[e]
				dst++
			}
			g.Start[x] = lens[x]
			g.End[x] = dst
		}
	})
	g.U, g.V, g.W = nu, nv, nw
	g.setCounts(g.n, total)
}
