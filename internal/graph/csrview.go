package graph

// This file backs the out-of-core path: a CSR whose section arrays live in
// a memory-mapped file (DESIGN.md §15) rather than in heap slices built by
// ToCSR. The mapped format stores exactly the four CSR sections —
// offsets/self/adj/wgt — so opening a graph is wrapping validated slices,
// and materializing one (for callers that need the bucketed
// representation), or one vertex range of it, is a linear extraction
// straight from the rows.

import (
	"fmt"
	"sort"

	"repro/internal/par"
)

// NewCSRView wraps pre-built CSR sections — typically slices over a
// memory-mapped file — into a CSR without copying. It validates the O(n)
// structural invariants (section lengths agree, offsets start at 0, end at
// len(adj), and never decrease) so a malformed file fails here rather than
// as an index panic inside a kernel sweep. Row contents are NOT validated
// (that would cost a full O(m) scan, defeating the O(1)-open promise of the
// mapped format). The extraction both detection paths run first,
// InducedFromCSR behind FromCSR and the sharded mode, checks every row it
// reads and rejects a corrupt one with an error; VerifyCSR runs the same
// row checks plus the symmetry count on their own.
func NewCSRView(offsets, adj, wgt, self []int64) (*CSR, error) {
	if len(offsets) == 0 {
		return nil, fmt.Errorf("graph: csr view: empty offsets section")
	}
	n := int64(len(offsets)) - 1
	if int64(len(self)) != n {
		return nil, fmt.Errorf("graph: csr view: %d self-loop entries for %d vertices", len(self), n)
	}
	if len(adj) != len(wgt) {
		return nil, fmt.Errorf("graph: csr view: adj/wgt length mismatch %d != %d", len(adj), len(wgt))
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: csr view: offsets[0] = %d, want 0", offsets[0])
	}
	if offsets[n] != int64(len(adj)) {
		return nil, fmt.Errorf("graph: csr view: offsets[%d] = %d, want adj length %d", n, offsets[n], len(adj))
	}
	for x := int64(0); x < n; x++ {
		if offsets[x] > offsets[x+1] {
			return nil, fmt.Errorf("graph: csr view: offsets decrease at vertex %d (%d -> %d)", x, offsets[x], offsets[x+1])
		}
	}
	return &CSR{Offsets: offsets, Adj: adj, Wgt: wgt, Self: self}, nil
}

// VerifyCSR runs the O(m) content checks NewCSRView skips: every neighbor
// id in range, no self entries in adj (self-loop weight lives in Self), no
// duplicate neighbors within a row (rows must be sorted), non-positive
// weights rejected, and the adjacency symmetric in total entry count.
// Diagnostic/validation paths only.
func VerifyCSR(c *CSR) error {
	n := c.NumVertices()
	for x := int64(0); x < n; x++ {
		if err := checkRow(c, x); err != nil {
			return err
		}
	}
	if entries := c.Offsets[n]; entries%2 != 0 {
		return fmt.Errorf("graph: csr: odd adjacency entry count %d (symmetric view stores every edge twice)", entries)
	}
	return nil
}

// checkRow runs VerifyCSR's per-row checks on row x: neighbor ids in range,
// no self entry, strictly ascending, positive weights, and a non-negative
// self-loop weight. The error names the vertex and the position.
func checkRow(c *CSR, x int64) error {
	n := c.NumVertices()
	adj, wgt := c.Neighbors(x)
	prev := int64(-1)
	for i, v := range adj {
		switch {
		case v < 0 || v >= n:
			return fmt.Errorf("graph: csr: vertex %d position %d: neighbor %d outside [0,%d)", x, i, v, n)
		case v == x:
			return fmt.Errorf("graph: csr: vertex %d position %d: self entry in adj (self-loops belong in Self)", x, i)
		case v <= prev:
			return fmt.Errorf("graph: csr: vertex %d position %d: neighbor %d after %d, row not strictly ascending", x, i, v, prev)
		case wgt[i] <= 0:
			return fmt.Errorf("graph: csr: vertex %d position %d: edge to %d has non-positive weight %d", x, i, v, wgt[i])
		}
		prev = v
	}
	if c.Self[x] < 0 {
		return fmt.Errorf("graph: csr: vertex %d has negative self-loop weight %d", x, c.Self[x])
	}
	return nil
}

// SortCSRRows sorts every adjacency row of c by neighbor id (weights follow
// their neighbors) with p workers. ToCSR writes each row as the vertex's
// own bucket followed by its in-neighbors, the same at every thread count
// but not sorted by id; the mapped on-disk format requires sorted rows so
// identical graphs serialize to identical bytes.
func SortCSRRows(p int, c *CSR) {
	n := int(c.NumVertices())
	par.ForDynamic(p, n, 0, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			adj, wgt := c.Neighbors(int64(x))
			if len(adj) > 1 && !sort.SliceIsSorted(adj, func(i, j int) bool { return adj[i] < adj[j] }) {
				sort.Sort(&rowByNeighbor{adj: adj, wgt: wgt})
			}
		}
	})
}

// rowByNeighbor sorts one CSR row's paired adj/wgt slices by neighbor id.
type rowByNeighbor struct{ adj, wgt []int64 }

func (r *rowByNeighbor) Len() int           { return len(r.adj) }
func (r *rowByNeighbor) Less(i, j int) bool { return r.adj[i] < r.adj[j] }
func (r *rowByNeighbor) Swap(i, j int) {
	r.adj[i], r.adj[j] = r.adj[j], r.adj[i]
	r.wgt[i], r.wgt[j] = r.wgt[j], r.wgt[i]
}

// FromCSR materializes the bucketed representation from a symmetric
// CSR view: the subgraph InducedFromCSR extracts for the whole vertex
// range, with every row validated on the way. This is the single-image path
// for graphs opened from the mapped format; the sharded path extracts
// per-shard subgraphs instead and never materializes the whole edge set on
// the heap. The extraction is one sequential O(|V| + |E|) sweep; p is
// accepted for the builder-style signature and does not change the result.
func FromCSR(p int, c *CSR) (*Graph, error) {
	g, _, err := InducedFromCSR(c, 0, c.NumVertices())
	return g, err
}

// InducedFromCSR extracts the subgraph of c induced by the vertex range
// [lo, hi), relabeled to [0, hi-lo), and its cut: every edge from a row in
// the range to a neighbor at or above hi, in global ids and row order. Each
// undirected edge is taken once, from its lower endpoint's row, so across a
// set of ranges that tile the vertex space every cut edge is reported by
// exactly one of them.
//
// The kernel is a count sweep, a prefix sum and a scatter. The count sweep
// runs VerifyCSR's per-row checks on every row of the range (neighbor ids
// in range, no self entry, strictly ascending, positive weights,
// non-negative self-loop weight) and fails with the vertex and position of
// the first violation, so a hostile view errors here instead of panicking
// later. Rows are swept in ascending order and each is strictly ascending,
// so every bucket is written sorted by V: the result equals Build's on the
// same edges, empty buckets at Start = End = 0 included.
func InducedFromCSR(c *CSR, lo, hi int64) (*Graph, []Edge, error) {
	n := c.NumVertices()
	if lo < 0 || lo > hi || hi > n {
		return nil, nil, fmt.Errorf("graph: induced range [%d,%d) outside [0,%d)", lo, hi, n)
	}
	g := NewEmpty(hi - lo)
	// Count: End[f] tallies the bucket of each internal edge's stored-first
	// endpoint. Local ids keep the global parity relation (both shift by
	// lo), so for x < v the first endpoint is x on equal parity, v otherwise.
	var internal, cut int64
	for x := lo; x < hi; x++ {
		if err := checkRow(c, x); err != nil {
			return nil, nil, err
		}
		adj, _ := c.Neighbors(x)
		for _, v := range adj {
			if v < x {
				continue
			}
			if v >= hi {
				cut++
				continue
			}
			f := x
			if (x^v)&1 != 0 {
				f = v
			}
			g.End[f-lo]++
			internal++
		}
	}

	// Prefix: non-empty buckets are laid out contiguously in vertex order;
	// End becomes each bucket's write cursor.
	var run int64
	for f, cnt := range g.End {
		if cnt != 0 {
			g.Start[f], g.End[f] = run, run
			run += cnt
		}
	}

	// Scatter in the count sweep's order.
	g.ResizeEdges(internal)
	cutEdges := make([]Edge, 0, cut)
	for x := lo; x < hi; x++ {
		adj, wgt := c.Neighbors(x)
		g.Self[x-lo] = c.Self[x]
		for i, v := range adj {
			if v < x {
				continue
			}
			if v >= hi {
				cutEdges = append(cutEdges, Edge{U: x, V: v, W: wgt[i]})
				continue
			}
			f, s := x-lo, v-lo
			if (x^v)&1 != 0 {
				f, s = s, f
			}
			pos := g.End[f]
			g.End[f] = pos + 1
			g.V[pos], g.W[pos] = s, wgt[i]
		}
	}
	g.setCounts(hi-lo, internal)
	return g, cutEdges, nil
}
