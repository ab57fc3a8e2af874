package graph

import (
	"repro/internal/buf"
	"repro/internal/par"
)

// CSR is a compressed sparse row adjacency view of a Graph in which every
// stored edge appears in both endpoints' rows. Sequential baselines (CNM,
// Louvain), the refinement pass, and the quality metrics want symmetric
// neighbor iteration, which the single-stored bucketed layout does not give
// directly.
//
// Self-loop weights are not materialized as CSR entries; they remain in
// Self, mirroring the triple representation.
type CSR struct {
	// Offsets has length |V|+1; vertex x's neighbors occupy
	// Adj[Offsets[x]:Offsets[x+1]] with weights in the same positions of Wgt.
	Offsets []int64
	Adj     []int64
	Wgt     []int64
	// Self mirrors Graph.Self.
	Self []int64
	// cursor is the scatter pass's per-row write position, kept so
	// ToCSRInto can rebuild the view without allocating.
	cursor []int64
}

// NumVertices returns the number of vertices in the view.
func (c *CSR) NumVertices() int64 { return int64(len(c.Offsets)) - 1 }

// Degree returns the number of distinct neighbors of x.
func (c *CSR) Degree(x int64) int64 { return c.Offsets[x+1] - c.Offsets[x] }

// Neighbors returns the neighbor and weight slices of vertex x.
func (c *CSR) Neighbors(x int64) (adj, wgt []int64) {
	lo, hi := c.Offsets[x], c.Offsets[x+1]
	return c.Adj[lo:hi], c.Wgt[lo:hi]
}

// SelfLoop returns the self-loop weight of vertex x.
func (c *CSR) SelfLoop(x int64) int64 { return c.Self[x] }

// RowBounds returns the per-vertex row start and end offset slices
// (start[x], end[x] delimit x's neighbors). Schedule builders consume these
// instead of indexing Offsets directly, keeping raw CSR field access inside
// this package.
func (c *CSR) RowBounds() (start, end []int64) {
	n := len(c.Offsets) - 1
	return c.Offsets[:n], c.Offsets[1 : n+1]
}

// ToCSR symmetrizes g into a CSR view using p workers: a counting pass with
// fetch-and-add, a prefix sum for row offsets, and a scatter pass.
func ToCSR(p int, g *Graph) *CSR {
	return ToCSRInto(p, g, &CSR{})
}

// ToCSRInto is ToCSR rebuilding the view inside c: every array is reused
// when its capacity suffices and grown (without copying) otherwise, so a
// scratch-held CSR costs nothing to refresh in the steady state. A nil c
// behaves like ToCSR.
func ToCSRInto(p int, g *Graph, c *CSR) *CSR {
	c, _ = toCSRInto(p, g, c)
	return c
}

// toCSRInto is ToCSRInto also reporting whether every bucket of g is sorted
// by V, which its counting pass learns at the cost of one compare per edge.
func toCSRInto(p int, g *Graph, c *CSR) (*CSR, bool) {
	if c == nil {
		c = &CSR{}
	}
	n := int(g.NumVertices())
	c.Offsets = buf.Grow(c.Offsets, n+1)
	counts := c.Offsets
	par.ZeroInt64(p, counts)
	var unsorted int64
	par.ForDynamic(p, n, 0, func(lo, hi int) {
		sorted := true
		for x := lo; x < hi; x++ {
			prev := int64(-1)
			for e := g.Start[x]; e < g.End[x]; e++ {
				v := g.V[e]
				atomicAdd(&counts[g.U[e]], 1)
				atomicAdd(&counts[v], 1)
				if v < prev {
					sorted = false
				}
				prev = v
			}
		}
		if !sorted {
			atomicAdd(&unsorted, 1)
		}
	})
	total := par.ExclusiveSumInt64(p, counts[:n])
	counts[n] = total
	c.Adj = buf.Grow(c.Adj, int(total))
	c.Wgt = buf.Grow(c.Wgt, int(total))
	c.Self = buf.Grow(c.Self, n)
	copy(c.Self, g.Self)
	// The offsets double as each row's initial write position; the scatter
	// advances a separate cursor copy so Offsets survives.
	c.cursor = buf.Grow(c.cursor, n)
	cursor := c.cursor
	copy(cursor, c.Offsets[:n])
	par.ForDynamic(p, n, 0, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			for e := g.Start[x]; e < g.End[x]; e++ {
				u, v, w := g.U[e], g.V[e], g.W[e]
				pu := atomicAdd(&cursor[u], 1) - 1
				c.Adj[pu], c.Wgt[pu] = v, w
				pv := atomicAdd(&cursor[v], 1) - 1
				c.Adj[pv], c.Wgt[pv] = u, w
			}
		}
	})
	return c, unsorted == 0
}
