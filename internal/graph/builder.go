package graph

import (
	"fmt"
	"sync/atomic"

	"repro/internal/par"
)

// Build assembles a Graph from raw undirected edges using p workers. The
// input may contain edges in either orientation, repeated edges (their
// weights accumulate, as the paper does for R-MAT output), self-loops
// (folded into the Self array), and zero- or negative-weight entries are
// rejected, as is input whose weights sum past MaxTotalWeight
// (ErrWeightOverflow). Build leaves the input slice in an unspecified order.
//
// The pipeline is the parallel analogue of the paper's construction: orient
// every triple by the parity hash, order the triple array by (first,
// second), accumulate duplicates with a segmented scan, then cut contiguous
// buckets. The ordering is a stable two-pass counting placement (§IV-C's
// bucket placement in place of the paper's sort), so the whole build is
// O(|E| + |V|).
func Build(p int, numVertices int64, edges []Edge) (*Graph, error) {
	if numVertices < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", numVertices)
	}
	g := &Graph{}
	g.ResizeVertices(numVertices)
	if len(edges) == 0 {
		return g, nil
	}

	// Pass 1: validate, orient and total the weights. Self-loops keep
	// U == V and are folded into g.Self during the scatter below. Every
	// duplicate and self-loop sum is part of the total, so bounding the
	// total (overflow-safe, per chunk and then across chunks) keeps the
	// accumulation below from wrapping.
	var bad int64
	var total atomic.Int64
	var over atomic.Bool
	par.For(p, len(edges), func(lo, hi int) {
		var sum int64
		for i := lo; i < hi; i++ {
			e := edges[i]
			if e.U < 0 || e.U >= numVertices || e.V < 0 || e.V >= numVertices || e.W <= 0 {
				atomicAdd(&bad, 1)
				continue
			}
			if e.W > MaxTotalWeight-sum {
				over.Store(true)
				return
			}
			sum += e.W
			if e.U != e.V {
				f, s := StoredOrder(e.U, e.V)
				edges[i] = Edge{f, s, e.W}
			}
		}
		if !atomicAddCapped(&total, sum, MaxTotalWeight) {
			over.Store(true)
		}
	})
	if bad != 0 {
		return nil, fmt.Errorf("graph: %d edges with endpoints outside [0,%d) or non-positive weight: %w",
			bad, numVertices, ErrVertexRange)
	}
	if over.Load() {
		return nil, fmt.Errorf("graph: edge weights sum past %d: %w", int64(MaxTotalWeight), ErrWeightOverflow)
	}

	// Pass 2: order by (U, V). Self-loops (U == V) land adjacent to the
	// vertex's bucket and are peeled off during accumulation. A linear
	// presort check skips the placement for callers that feed triples
	// already in stored order, such as ReadBinary or a graph's own Edges().
	if !sortedByUV(p, edges) {
		placeByUV(p, numVertices, edges)
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
	// (zeroed) W; exactly one group leader writes each V slot. The same
	// sweep cuts the buckets: the input is sorted by U, so where U changes
	// the exclusive prefix is both the old owner's End and the new owner's
	// Start.
	g.ResizeEdges(unique)
	par.For(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := edges[i]
			lead := e.U != e.V && (i == 0 || edges[i-1].U != e.U || edges[i-1].V != e.V)
			// head[i] now holds the exclusive prefix: for a group's leader
			// it is the group's output slot; for continuations and
			// self-loops it is the next free slot.
			slot := head[i]
			if i == 0 || edges[i-1].U != e.U {
				g.Start[e.U] = slot
			}
			if i == n-1 || edges[i+1].U != e.U {
				end := slot
				if lead {
					end++
				}
				g.End[e.U] = end
			}
			if e.U == e.V {
				atomicAdd(&g.Self[e.U], e.W)
				continue
			}
			// Only the group leader writes the neighbor (exactly one leader
			// per slot, so the store is race-free); every member accumulates
			// its weight with fetch-and-add, a continuation into the slot
			// before its prefix.
			if lead {
				g.V[slot] = e.V
			} else {
				slot--
			}
			atomicAdd(&g.W[slot], e.W)
		}
	})

	// A vertex whose run held only self-loops cut an empty bucket at its
	// run's offset; empty buckets sit at Start = End = 0.
	par.For(p, int(numVertices), func(lo, hi int) {
		for x := lo; x < hi; x++ {
			if g.Start[x] == g.End[x] {
				g.Start[x], g.End[x] = 0, 0
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

// placeByUV orders edges by (U, V) with a stable two-pass counting
// placement: by V into a temporary, then by U back. Each pass is the
// contraction's striped placement without atomics: the edge array splits
// into equal ranges, every range counts its keys into a private stripe,
// par.StripeOffsets, a prefix sum over the per-key totals and
// par.StripeCursors turn the stripes into per-(range, key) absolute write
// cursors, and every range scatters its edges in order. Within a key,
// ranges write in range order and each range in input order, so both
// passes are stable and the result is the same at every p. Duplicate
// (U, V) groups may come out in any input order; their weights are
// integers and sum to the same total.
//
// The placement uses at most max(1, 2|E|/|V|) ranges, so past the first
// |V|-wide stripe the stripes add at most 2|E| words, less than the triple
// array's 3|E|.
func placeByUV(p int, numVertices int64, edges []Edge) {
	n, m := int(numVertices), len(edges)
	ranges := min(par.Workers(p, m), max(1, 2*m/n))
	stripes := make([]int64, ranges*n)
	totals := make([]int64, n)
	tmp := make([]Edge, m)
	placeBy(p, ranges, edges, tmp, stripes, totals, false)
	placeBy(p, ranges, tmp, edges, stripes, totals, true)
}

// placeBy is one stable counting pass of placeByUV: it writes src into dst
// ordered by U when byU is set and by V otherwise. stripes holds ranges
// n-wide stripes and totals n entries, n the key space.
func placeBy(p, ranges int, src, dst []Edge, stripes, totals []int64, byU bool) {
	n, m := len(totals), len(src)
	par.ZeroInt64(p, stripes)
	par.For(ranges, ranges, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			cnt := stripes[r*n : (r+1)*n]
			for _, e := range src[r*m/ranges : (r+1)*m/ranges] {
				if byU {
					cnt[e.U]++
				} else {
					cnt[e.V]++
				}
			}
		}
	})
	par.StripeOffsets(p, stripes, ranges, n, totals)
	par.ExclusiveSumInt64(p, totals)
	par.StripeCursors(p, stripes, ranges, n, totals)
	par.For(ranges, ranges, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			cur := stripes[r*n : (r+1)*n]
			for _, e := range src[r*m/ranges : (r+1)*m/ranges] {
				k := e.V
				if byU {
					k = e.U
				}
				dst[cur[k]] = e
				cur[k]++
			}
		}
	})
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
	nv := make([]int64, total)
	nw := make([]int64, total)
	par.ForDynamic(p, n, 0, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			dst := lens[x]
			for e := g.Start[x]; e < g.End[x]; e++ {
				nv[dst] = g.V[e]
				nw[dst] = g.W[e]
				dst++
			}
			g.Start[x] = lens[x]
			g.End[x] = dst
		}
	})
	g.V, g.W = nv, nw
	g.setCounts(g.n, total)
}
