package graph

// This file backs the out-of-core path: a CSR whose section arrays live in
// a memory-mapped file (DESIGN.md §15) rather than in heap slices built by
// ToCSR. The mapped format stores exactly the four CSR sections —
// offsets/self/adj/wgt — so opening a graph is wrapping validated slices,
// and materializing one (for callers that need the bucketed triple
// representation) is a single sweep back through the builder.

import (
	"fmt"
	"sort"

	"repro/internal/par"
)

// NewCSRView wraps pre-built CSR sections — typically slices over a
// memory-mapped file — into a CSR without copying. It validates the O(n)
// structural invariants (section lengths agree, offsets start at 0, end at
// len(adj), and never decrease) so a malformed file fails here rather than
// as an index panic inside a kernel sweep. Neighbor ids are NOT validated
// (that would cost a full O(m) scan, defeating the O(1)-open promise of the
// mapped format); an out-of-range id in a corrupt file surfaces as a
// bounds-check panic, not memory corruption. Callers that want the full
// check run FromCSR or VerifyCSR.
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
	var entries int64
	for x := int64(0); x < n; x++ {
		adj, wgt := c.Neighbors(x)
		prev := int64(-1)
		for i, v := range adj {
			if v < 0 || v >= n {
				return fmt.Errorf("graph: csr: vertex %d neighbor %d outside [0,%d)", x, v, n)
			}
			if v == x {
				return fmt.Errorf("graph: csr: vertex %d has a self entry in adj (self-loops belong in Self)", x)
			}
			if v <= prev {
				return fmt.Errorf("graph: csr: vertex %d row not strictly sorted at position %d", x, i)
			}
			if wgt[i] <= 0 {
				return fmt.Errorf("graph: csr: vertex %d edge to %d has non-positive weight %d", x, v, wgt[i])
			}
			prev = v
		}
		if c.Self[x] < 0 {
			return fmt.Errorf("graph: csr: vertex %d has negative self-loop weight %d", x, c.Self[x])
		}
		entries += int64(len(adj))
	}
	if entries%2 != 0 {
		return fmt.Errorf("graph: csr: odd adjacency entry count %d (symmetric view stores every edge twice)", entries)
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

// FromCSR materializes the bucketed triple representation from a symmetric
// CSR view: each undirected edge — present in both endpoints' rows — is
// emitted once (from its lower endpoint's row) and accumulated through the
// standard builder; self-loop weights copy over directly. This is the
// single-image path for graphs opened from the mapped format; the sharded
// path extracts per-shard subgraphs instead and never materializes the
// whole edge set on the heap. Neighbor ids are range-checked during the
// sweep, closing the validation gap NewCSRView leaves open.
func FromCSR(p int, c *CSR) (*Graph, error) {
	n := c.NumVertices()
	var count int64
	for x := int64(0); x < n; x++ {
		adj, _ := c.Neighbors(x)
		for _, v := range adj {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("graph: from csr: vertex %d neighbor %d outside [0,%d)", x, v, n)
			}
			if v > x {
				count++
			}
		}
	}
	edges := make([]Edge, 0, count)
	for x := int64(0); x < n; x++ {
		adj, wgt := c.Neighbors(x)
		for i, v := range adj {
			if v > x {
				edges = append(edges, Edge{U: x, V: v, W: wgt[i]})
			}
		}
	}
	g, err := Build(p, n, edges)
	if err != nil {
		return nil, err
	}
	for x := int64(0); x < n; x++ {
		if s := c.SelfLoop(x); s != 0 {
			if s < 0 {
				return nil, fmt.Errorf("graph: from csr: vertex %d has negative self-loop weight %d", x, s)
			}
			g.Self[x] += s
		}
	}
	return g, nil
}
