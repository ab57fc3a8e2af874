// Package graph implements the paper's core data structure (§IV-A): a
// weighted undirected graph in which each edge appears exactly once,
// oriented by a parity hash of its endpoints and grouped into per-vertex
// buckets that need not be contiguous.
//
// The paper stores every edge as an (i, j, w) triple. Here the triple is
// the file format and the Edge type, but in memory a bucket implies its
// owner i, so a stored edge is the pair (j, w): bucket x is
// V[Start[x]:End[x]] with weights W[Start[x]:End[x]].
//
// Self-loop weights live in a |V|-long side array; for a community graph
// they count the input edges contained within each community. A graph with
// |V| vertices and |E| unique non-self edges occupies 3|V| + 2|E| 64-bit
// words plus a few scalars, |E| words under the paper's 3|V| + 3|E|.
package graph

import (
	"errors"
	"fmt"
	"math"
	"repro/internal/buf"

	"repro/internal/par"
)

// Edge is one weighted undirected input edge. Builders accept edges in any
// orientation, with duplicates (weights accumulate) and self-loops (folded
// into the self-loop array).
type Edge struct {
	U, V int64
	W    int64
}

// Graph is the bucketed edge representation. The exported arrays are the
// algorithm kernels' working surface; treat them as read-only outside this
// package and the matching/contraction kernels unless noted otherwise.
// An edge's first endpoint is not stored: every edge in x's bucket belongs
// to x, so kernels take the owner from their bucket loop.
//
// Invariants (checked by Validate):
//   - For every vertex x, Start[x] <= End[x] and [Start[x], End[x]) indexes
//     V and W. Buckets never overlap but may sit in any order and may leave
//     gaps (the paper's non-contiguous layout, §IV-C).
//   - For every stored edge e in x's bucket: V[e] != x, W[e] > 0, and
//     (x, V[e]) is in parity-hash order (see StoredOrder).
//   - Each undirected edge {i, j} is stored exactly once, in the bucket of
//     its parity-hash first endpoint.
//   - Every bucket holds distinct V values. Buckets from Build are also
//     sorted by V; contraction leaves them in first-seen order, and readers
//     that need sorted buckets (the Overlay's base lookups) sort a copy.
type Graph struct {
	// V and W hold the stored edges: V[e] is the neighbor and W[e] the
	// weight of an edge whose first endpoint is the owner of e's bucket.
	V, W []int64
	// Self[x] is the self-loop weight of vertex x (input edges inside
	// community x once the graph has been contracted at least once).
	Self []int64
	// Start and End delimit vertex x's bucket as [Start[x], End[x]).
	Start, End []int64

	n int64 // number of vertices
	m int64 // number of live stored edges (sum of bucket lengths)
}

// StoredOrder returns the endpoints of edge {i, j} in storage order under
// the paper's parity hash: if i and j have equal parity the smaller index
// comes first, otherwise the larger. This scatters the edges of high-degree
// vertices across many source buckets instead of piling them into one
// (§IV-A). StoredOrder panics if i == j; self-loops are not stored as
// triples.
//
// The orientation is a coin flip per edge, which a branch predictor cannot
// learn, so it is computed branch-free from a sign mask and a parity mask.
// Vertex ids are non-negative, so i-j cannot overflow.
func StoredOrder(i, j int64) (first, second int64) {
	if i == j {
		panic("graph: StoredOrder of a self-loop")
	}
	d := i - j
	lt := d >> 63           // all ones when i < j
	odd := -((i ^ j) & 1)   // all ones when the parities differ
	swap := d &^ (lt ^ odd) // d when j goes first, 0 otherwise
	return i - swap, j + swap
}

// NewEmpty returns a graph with n vertices and no edges.
func NewEmpty(n int64) *Graph {
	return &Graph{
		Self:  make([]int64, n),
		Start: make([]int64, n),
		End:   make([]int64, n),
		n:     n,
	}
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int64 { return g.n }

// NumEdges returns the number of unique stored non-self edges.
func (g *Graph) NumEdges() int64 { return g.m }

// setCounts is used by builders and contraction to fix the scalar
// bookkeeping after filling the arrays directly.
func (g *Graph) setCounts(n, m int64) {
	g.n, g.m = n, m
}

// SetCounts fixes the vertex and live-edge counts after a kernel has filled
// the arrays directly. m must equal the sum of bucket lengths.
func (g *Graph) SetCounts(n, m int64) { g.setCounts(n, m) }

// ResizeVertices reslices the vertex-indexed arrays (Self, Start, End) to n
// entries, reusing their capacity when possible, and sets the vertex count.
// Newly exposed entries hold stale values the caller must overwrite — this
// is the contraction kernels' ping-pong reuse hook, not a public builder.
// Call SetCounts (or ResizeEdges plus filling) before handing the graph out.
func (g *Graph) ResizeVertices(n int64) {
	g.Self = buf.Grow(g.Self, int(n))
	g.Start = buf.Grow(g.Start, int(n))
	g.End = buf.Grow(g.End, int(n))
	g.n = n
}

// ResizeEdges reslices the edge arrays (V, W) to m entries under the same
// stale-contents contract as ResizeVertices. The live-edge count is set by
// SetCounts once the kernels know how many edges survived deduplication.
func (g *Graph) ResizeEdges(m int64) {
	g.V = buf.Grow(g.V, int(m))
	g.W = buf.Grow(g.W, int(m))
}

// Bucket returns the [lo, hi) edge-array range of vertex x's bucket.
func (g *Graph) Bucket(x int64) (lo, hi int64) {
	return g.Start[x], g.End[x]
}

// ForEachEdge calls fn once per stored edge, bucket by bucket, with the
// edge-array index, the bucket owner u, and the stored neighbor and weight.
// It is sequential; parallel kernels iterate buckets themselves with
// par.ForDynamic.
func (g *Graph) ForEachEdge(fn func(e int64, u, v, w int64)) {
	for x := int64(0); x < g.n; x++ {
		for e := g.Start[x]; e < g.End[x]; e++ {
			fn(e, x, g.V[e], g.W[e])
		}
	}
}

// Edges materializes the stored edges as a slice, mostly for tests and I/O.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	g.ForEachEdge(func(_ int64, u, v, w int64) {
		out = append(out, Edge{u, v, w})
	})
	return out
}

// TotalWeight returns the graph's total edge weight: the sum of all stored
// edge weights plus all self-loop weights, each undirected edge counted
// once. Contraction preserves this quantity, so for a community graph it
// equals the input graph's edge weight (the modularity denominator m).
func (g *Graph) TotalWeight(p int) int64 {
	edges := g.sumBucketWeights(p)
	selves := par.SumInt64(p, g.Self)
	return edges + selves
}

func (g *Graph) sumBucketWeights(p int) int64 {
	n := int(g.n)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		p = par.DefaultThreads()
	}
	if par.Serial(p, n) {
		var s int64
		for x := 0; x < n; x++ {
			for e := g.Start[x]; e < g.End[x]; e++ {
				s += g.W[e]
			}
		}
		return s
	}
	partial := make([]int64, p)
	w := par.ForWorker(p, n, func(worker, lo, hi int) {
		var s int64
		for x := lo; x < hi; x++ {
			for e := g.Start[x]; e < g.End[x]; e++ {
				s += g.W[e]
			}
		}
		partial[worker] = s
	})
	var s int64
	for _, x := range partial[:w] {
		s += x
	}
	return s
}

// WeightedDegrees returns d[x] = 2·Self[x] + Σ_{e incident to x} W[e] for
// every vertex, computed with p workers. This is the community volume used
// by both the modularity and conductance scorers: d sums to 2·TotalWeight.
// It is the reference the engine's own degree paths are checked against:
// the engine computes level-0 degrees with per-worker stripes and rolls them
// up through every contraction after that.
func (g *Graph) WeightedDegrees(p int) []int64 {
	n := int(g.n)
	d := make([]int64, n)
	if par.Serial(p, n) {
		for x := 0; x < n; x++ {
			d[x] = 2 * g.Self[x]
		}
		for x := 0; x < n; x++ {
			for e := g.Start[x]; e < g.End[x]; e++ {
				w := g.W[e]
				d[x] += w
				d[g.V[e]] += w
			}
		}
		return d
	}
	par.For(p, n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			d[x] = 2 * g.Self[x]
		}
	})
	// Each stored edge contributes to both endpoints, and both take an atomic
	// add (the paper's fetch-and-add): the owner side belongs to the bucket
	// being scanned, but another bucket's V-side add can hit the same word at
	// the same time.
	par.ForDynamic(p, n, 0, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			for e := g.Start[x]; e < g.End[x]; e++ {
				w := g.W[e]
				atomicAdd(&d[x], w)
				atomicAdd(&d[g.V[e]], w)
			}
		}
	})
	return d
}

// MaxBucketLen returns the length of the largest bucket, a measure of how
// well the parity hash scattered high-degree vertices.
func (g *Graph) MaxBucketLen() int64 {
	var max int64
	for x := int64(0); x < g.n; x++ {
		if l := g.End[x] - g.Start[x]; l > max {
			max = l
		}
	}
	return max
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		V:     append([]int64(nil), g.V...),
		W:     append([]int64(nil), g.W...),
		Self:  append([]int64(nil), g.Self...),
		Start: append([]int64(nil), g.Start...),
		End:   append([]int64(nil), g.End...),
		n:     g.n,
		m:     g.m,
	}
	return c
}

// Validate checks every representation invariant and returns a descriptive
// error for the first violation found. It is O(|V| log |V| + |E|) and meant
// for tests and debugging, not inner loops.
func (g *Graph) Validate() error {
	if int64(len(g.Self)) != g.n || int64(len(g.Start)) != g.n || int64(len(g.End)) != g.n {
		return fmt.Errorf("graph: side arrays sized %d/%d/%d, want %d",
			len(g.Self), len(g.Start), len(g.End), g.n)
	}
	if len(g.V) != len(g.W) {
		return fmt.Errorf("graph: edge arrays sized %d/%d", len(g.V), len(g.W))
	}
	capE := int64(len(g.V))
	var live int64
	type span struct{ lo, hi, owner int64 }
	spans := make([]span, 0, g.n)
	// seen[v] == x+1 marks v as already a neighbor in x's bucket, so no
	// per-bucket reset is needed.
	seen := make([]int64, g.n)
	for x := int64(0); x < g.n; x++ {
		lo, hi := g.Start[x], g.End[x]
		if lo > hi {
			return fmt.Errorf("graph: vertex %d bucket [%d,%d) inverted", x, lo, hi)
		}
		if hi > capE || lo < 0 {
			return fmt.Errorf("graph: vertex %d bucket [%d,%d) outside edge arrays of len %d", x, lo, hi, capE)
		}
		if g.Self[x] < 0 {
			return fmt.Errorf("graph: vertex %d negative self-loop %d", x, g.Self[x])
		}
		if lo < hi {
			spans = append(spans, span{lo, hi, x})
		}
		live += hi - lo
		for e := lo; e < hi; e++ {
			v, w := g.V[e], g.W[e]
			if v == x {
				return fmt.Errorf("graph: edge %d is a stored self-loop (%d,%d)", e, x, v)
			}
			if v < 0 || v >= g.n {
				return fmt.Errorf("graph: edge %d endpoint %d out of range", e, v)
			}
			if w <= 0 {
				return fmt.Errorf("graph: edge %d non-positive weight %d", e, w)
			}
			// The owner is implied, so an edge filed in the wrong bucket
			// shows as one whose stored-first endpoint is not the owner.
			if first, _ := StoredOrder(x, v); first != x {
				return fmt.Errorf("graph: edge %d (%d,%d) in the bucket of %d belongs in the bucket of %d", e, x, v, x, v)
			}
			if seen[v] == x+1 {
				return fmt.Errorf("graph: bucket of %d repeats neighbor %d at edge %d", x, v, e)
			}
			seen[v] = x + 1
		}
	}
	if live != g.m {
		return fmt.Errorf("graph: live edge count %d does not match m=%d", live, g.m)
	}
	// Buckets must not overlap.
	par.Sort(1, spans, func(a, b span) bool { return a.lo < b.lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("graph: buckets of %d and %d overlap", spans[i-1].owner, spans[i].owner)
		}
	}
	return nil
}

// ErrVertexRange reports an edge endpoint outside [0, n).
var ErrVertexRange = errors.New("graph: edge endpoint out of vertex range")

// MaxTotalWeight bounds a graph's total weight Σ W + Σ Self. Within it
// every edge weight, self-loop and weighted degree (at most twice the
// total) fits in an int64. Build and the overlay enforce it.
const MaxTotalWeight = math.MaxInt64 / 2

// ErrWeightOverflow reports input whose total weight would pass
// MaxTotalWeight.
var ErrWeightOverflow = errors.New("graph: total edge weight overflows")
