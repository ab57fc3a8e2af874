package graph

import (
	"sync/atomic"

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
// Self, mirroring the bucketed representation.
type CSR struct {
	// Offsets has length |V|+1; vertex x's neighbors occupy
	// Adj[Offsets[x]:Offsets[x+1]] with weights in the same positions of Wgt.
	Offsets []int64
	Adj     []int64
	Wgt     []int64
	// Self mirrors Graph.Self.
	Self []int64
	// stripes and part are the build's per-(range, row) counts and write
	// cursors and its edge-balanced schedule, kept so ToCSRInto can
	// rebuild the view without allocating.
	stripes []int64
	part    par.Partition
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

// ToCSR symmetrizes g into a CSR view using p workers. The build is the
// contraction's striped placement (§IV-C) with no atomics: an edge-balanced
// count pass tallies each row's in-entries into per-range stripes behind a
// leading stripe of own-bucket lengths, a striped-offset reduction and a
// prefix sum turn them into row offsets and private per-(range, row)
// absolute write cursors (par.StripeCursors), and a scatter pass copies
// every bucket to the head of its own row and writes each in-entry at its
// cursor.
//
// Row x is x's own bucket in bucket order, then x's in-neighbors — the
// vertices whose buckets store an edge to x — by ascending source bucket.
// The layout is therefore the same at every p. Rows are not sorted by
// neighbor id unless the buckets happen to produce that order; see
// SortCSRRows.
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
// by V, which its count pass learns at the cost of one compare per edge.
//
// The build uses at most max(1, 2|E|/|V|) ranges, so past the leading
// own-length stripe its n-wide stripes never hold more words than Adj has
// entries.
func toCSRInto(p int, g *Graph, c *CSR) (*CSR, bool) {
	if c == nil {
		c = &CSR{}
	}
	n := int(g.n)
	c.Offsets = buf.Grow(c.Offsets, n+1)
	c.Self = buf.Grow(c.Self, n)
	copy(c.Self, g.Self)
	c.Offsets[0] = 0
	if n == 0 {
		c.Adj, c.Wgt = c.Adj[:0], c.Wgt[:0]
		return c, true
	}
	ranges := min(par.Workers(p, n), max(1, int(2*g.m/int64(n))))
	if ranges > 1 {
		c.part.BuildBuckets(nil, ranges, n, g.Start, g.End)
		ranges = c.part.Workers()
	}
	// Stripe 0 holds every row's own-bucket length and stripe 1+j range
	// j's in-entry counts, so the striped offsets put each own bucket at
	// the head of its row, ahead of the in-entries in range order.
	c.stripes = buf.Grow(c.stripes, (ranges+1)*n)
	stripes := c.stripes
	own, in := stripes[:n], stripes[n:]
	if par.Serial(p, n) {
		bucketLengths(g, own, 0, n)
	} else {
		par.For(p, n, func(lo, hi int) { bucketLengths(g, own, lo, hi) })
	}
	par.ZeroInt64(p, in)

	// Count: range j's stripe in[j*n:(j+1)*n] tallies the in-entries its
	// edges add to each row. Ranges are edge-exact spans; a hub bucket split across
	// spans is checked for order across the split too.
	sorted := true
	if ranges == 1 {
		sorted = countInRange(g, in, 0, n, g.Start[0], g.End[n-1])
	} else {
		var unsorted atomic.Bool
		pt := &c.part
		par.For(ranges, ranges, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				sp := pt.Span(j)
				if !countInRange(g, in[j*n:(j+1)*n], sp.LoV, sp.HiV, sp.LoE, sp.HiE) {
					unsorted.Store(true)
				}
			}
		})
		sorted = !unsorted.Load()
	}

	// Offsets: the striped reduction leaves each row's degree in Offsets
	// and each range's exclusive in-row offset, past the own bucket, in
	// its stripe; a prefix sum gives the row offsets, and adding them to
	// the stripes turns the stripes into write cursors.
	offsets := c.Offsets
	par.StripeOffsets(p, stripes, ranges+1, n, offsets)
	total := par.ExclusiveSumInt64(p, offsets[:n])
	offsets[n] = total
	par.StripeCursors(p, stripes, ranges+1, n, offsets)

	// Scatter: each range replays the edges it counted against the same
	// stripe, so no two ranges write the same slot.
	c.Adj = buf.Grow(c.Adj, int(total))
	c.Wgt = buf.Grow(c.Wgt, int(total))
	if ranges == 1 {
		scatterRange(g, c, in, 0, n, g.Start[0], g.End[n-1])
	} else {
		pt := &c.part
		par.For(ranges, ranges, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				sp := pt.Span(j)
				scatterRange(g, c, in[j*n:(j+1)*n], sp.LoV, sp.HiV, sp.LoE, sp.HiE)
			}
		})
	}
	return c, sorted
}

// countInRange adds one to in[v] for every edge (x, v) of buckets [lo, hi),
// the first and last bucket clamped to the edge run [eloFirst, ehiLast)
// (the par.Span discipline). It reports whether the run's buckets are
// sorted by V, comparing a split bucket's first edge with the one before it.
func countInRange(g *Graph, in []int64, lo, hi int, eloFirst, ehiLast int64) bool {
	sorted := true
	for x := lo; x < hi; x++ {
		elo, ehi := g.Start[x], g.End[x]
		if x == lo {
			elo = eloFirst
		}
		if x == hi-1 {
			ehi = ehiLast
		}
		prev := int64(-1)
		if elo > g.Start[x] {
			prev = g.V[elo-1]
		}
		for _, v := range g.V[elo:ehi] {
			in[v]++
			if v < prev {
				sorted = false
			}
			prev = v
		}
	}
	return sorted
}

// bucketLengths writes the bucket lengths of vertices [lo, hi) into own.
func bucketLengths(g *Graph, own []int64, lo, hi int) {
	for x := lo; x < hi; x++ {
		own[x] = g.End[x] - g.Start[x]
	}
}

// scatterRange writes countInRange's edge run into c: each bucket piece
// goes to the matching place at the head of its own row, and each edge
// (x, v) to row v at the range's cursor cur[v].
func scatterRange(g *Graph, c *CSR, cur []int64, lo, hi int, eloFirst, ehiLast int64) {
	for x := lo; x < hi; x++ {
		elo, ehi := g.Start[x], g.End[x]
		if x == lo {
			elo = eloFirst
		}
		if x == hi-1 {
			ehi = ehiLast
		}
		row := c.Offsets[x] + elo - g.Start[x]
		copy(c.Adj[row:], g.V[elo:ehi])
		copy(c.Wgt[row:], g.W[elo:ehi])
		src := int64(x)
		for e := elo; e < ehi; e++ {
			v := g.V[e]
			pos := cur[v]
			cur[v] = pos + 1
			c.Adj[pos], c.Wgt[pos] = src, g.W[e]
		}
	}
}

// dropBuildState releases the build's stripes and schedule, for a view that
// is kept long after it is built.
func (c *CSR) dropBuildState() {
	c.stripes, c.part = nil, par.Partition{}
}
