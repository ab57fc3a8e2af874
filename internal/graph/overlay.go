package graph

import (
	"sort"
	"sync"

	"repro/internal/par"
)

// Overlay is the mutable tier of the two-tier dynamic graph store. The
// frozen tier is an immutable Graph plus its CSR view; the overlay layers
// per-vertex adjacency patches on top so edge inserts and deletes land in
// O(log d) without touching the base arrays. Readers see the merged view
// through the AdjacencyView contract (Degree, ForNeighbors, SelfLoop), and
// Compact folds the accumulated patches back into a fresh frozen base
// through the existing builder pipeline.
//
// Patches are symmetric: every non-self update is recorded on both endpoint
// rows, so a single row lookup answers any adjacency question. A patch entry
// stores the edge's full effective weight (not a diff); weight zero is a
// tombstone. Base rows are never modified — an entry flagged inBase shadows
// the corresponding base edge.
//
// Concurrency: ApplyDelta and Compact take the write lock; all read methods
// take the read lock, so concurrent readers are safe against a concurrent
// mutator. Read callbacks run under the read lock and must not call back
// into the overlay's mutating methods.
type Overlay struct {
	mu   sync.RWMutex
	p    int
	base *Graph
	csr  CSR

	// csrStale marks the CSR mirror as lagging the base after a compaction.
	// The mirror rebuilds lazily on the next merged read: serving loops
	// that fold and immediately re-detect (which reads the frozen base, not
	// the view) never pay for it.
	csrStale bool

	rows    map[int64]*patchRow
	selfOv  map[int64]int64
	rowFree []*patchRow

	version   uint64
	pending   int64
	liveEdges int64
	stats     OverlayStats

	// Compaction scratch: the materialized edge list, the builder's
	// intermediates, and the previous overlay-owned base recycled as the
	// next build destination. Steady-state compaction allocates nothing.
	edgeBuf   []Edge
	build     BuildScratch
	spare     *Graph
	baseOwned bool
}

// OverlayStats counts the update traffic an overlay has absorbed. All
// fields are cumulative across compactions.
type OverlayStats struct {
	// Inserts counts applied insert updates (including weight
	// accumulation onto existing edges).
	Inserts int64
	// Accumulated counts the subset of Inserts that added weight to an
	// already-live edge rather than creating one.
	Accumulated int64
	// Deletes counts delete updates that removed a live edge.
	Deletes int64
	// NoopDeletes counts delete updates whose edge did not exist.
	NoopDeletes int64
	// Compactions counts Compact calls that rebuilt the base.
	Compactions int64
}

// Compaction policy: fold the overlay once the patch volume makes merged
// reads noticeably slower than frozen reads. Either bound triggers.
const (
	// compactMinPending is the absolute pending-update threshold.
	compactMinPending = 64
	// compactFractionDen triggers once pending exceeds 1/compactFractionDen
	// of the base edge count (25%).
	compactFractionDen = 4
)

// patchRow is one vertex's adjacency patch: neighbor ids sorted ascending,
// parallel effective weights (0 = tombstone), and a flag marking entries
// that shadow a base edge. added/killed cache the row's net degree delta.
type patchRow struct {
	nbr    []int64
	w      []int64
	inBase []bool
	added  int64
	killed int64
}

// search returns the lower-bound insertion index for v and whether v is
// already present.
func (r *patchRow) search(v int64) (idx int, ok bool) {
	lo, hi := 0, len(r.nbr)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.nbr[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(r.nbr) && r.nbr[lo] == v
}

func (r *patchRow) reset() {
	r.nbr = r.nbr[:0]
	r.w = r.w[:0]
	r.inBase = r.inBase[:0]
	r.added, r.killed = 0, 0
}

// NewOverlay wraps base in a mutable overlay using p workers (0 = all) for
// view rebuilds and compactions. The overlay never writes to base; the
// first Compact builds a replacement and later ones recycle overlay-owned
// generations.
//
// Base lookups and Compact's merge walk need buckets sorted by V, which
// Build guarantees but contraction does not (it keeps first-seen order).
// When the CSR pass finds an unsorted bucket, the overlay adopts a private
// clone with every bucket sorted as its base; the CSR rows are the same
// either way.
func NewOverlay(p int, base *Graph) *Overlay {
	if p <= 0 {
		p = par.DefaultThreads()
	}
	o := &Overlay{
		p:      p,
		base:   base,
		rows:   make(map[int64]*patchRow),
		selfOv: make(map[int64]int64),
	}
	if _, sorted := toCSRInto(p, base, &o.csr); !sorted {
		o.base = base.Clone()
		o.base.sortBuckets(p)
		o.baseOwned = true
	}
	o.liveEdges = base.NumEdges()
	return o
}

// sortBuckets sorts every bucket of g by V in place.
func (g *Graph) sortBuckets(p int) {
	par.ForDynamic(p, int(g.n), 0, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			s, e := g.Start[x], g.End[x]
			sort.Sort(bucketByV{g.V[s:e], g.W[s:e]})
		}
	})
}

// bucketByV sorts one bucket's parallel V and W slices by V.
type bucketByV struct{ v, w []int64 }

func (b bucketByV) Len() int           { return len(b.v) }
func (b bucketByV) Less(i, j int) bool { return b.v[i] < b.v[j] }
func (b bucketByV) Swap(i, j int) {
	b.v[i], b.v[j] = b.v[j], b.v[i]
	b.w[i], b.w[j] = b.w[j], b.w[i]
}

// NumVertices returns |V|. The vertex set is fixed at construction; deltas
// mutate edges only.
func (o *Overlay) NumVertices() int64 { return o.base.NumVertices() }

// NumEdges returns the number of live unique non-self edges in the merged
// view.
func (o *Overlay) NumEdges() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.liveEdges
}

// Version returns the version of the last applied delta batch.
func (o *Overlay) Version() uint64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.version
}

// Pending returns the number of updates applied since the last compaction.
func (o *Overlay) Pending() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.pending
}

// Stats returns a snapshot of the cumulative update counters.
func (o *Overlay) Stats() OverlayStats {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.stats
}

// Base returns the current frozen base. It reflects updates only up to the
// last compaction; treat it as read-only. It is recycled as build scratch
// two compactions later — Clone it to keep it longer.
func (o *Overlay) Base() *Graph {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.base
}

// lockSharedWithCSR takes the read lock, first rebuilding the CSR mirror
// under the write lock if a compaction staled it. On return the caller
// holds the read lock and the mirror matches the base.
func (o *Overlay) lockSharedWithCSR() {
	o.mu.RLock()
	for o.csrStale {
		o.mu.RUnlock()
		o.mu.Lock()
		if o.csrStale {
			ToCSRInto(o.p, o.base, &o.csr)
			o.csrStale = false
		}
		o.mu.Unlock()
		o.mu.RLock()
	}
}

// Degree returns the number of distinct live neighbors of x in the merged
// view.
func (o *Overlay) Degree(x int64) int64 {
	o.lockSharedWithCSR()
	defer o.mu.RUnlock()
	d := o.csr.Degree(x)
	if r := o.rows[x]; r != nil {
		d += r.added - r.killed
	}
	return d
}

// SelfLoop returns the merged self-loop weight of vertex x.
func (o *Overlay) SelfLoop(x int64) int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if s, ok := o.selfOv[x]; ok {
		return s
	}
	return o.base.Self[x]
}

// ForNeighbors calls fn once per live neighbor of x with the neighbor id
// and the merged edge weight. Base neighbors shadowed by a patch report the
// patched weight (tombstoned ones are skipped); patch-only neighbors follow
// in ascending id order.
func (o *Overlay) ForNeighbors(x int64, fn func(v, w int64)) {
	o.lockSharedWithCSR()
	defer o.mu.RUnlock()
	adj, wgt := o.csr.Neighbors(x)
	r := o.rows[x]
	if r == nil {
		for i, v := range adj {
			fn(v, wgt[i])
		}
		return
	}
	for i, v := range adj {
		if idx, ok := r.search(v); ok {
			if w := r.w[idx]; w > 0 {
				fn(v, w)
			}
			continue
		}
		fn(v, wgt[i])
	}
	for idx, v := range r.nbr {
		if !r.inBase[idx] && r.w[idx] > 0 {
			fn(v, r.w[idx])
		}
	}
}

var _ AdjacencyView = (*Overlay)(nil)

// ApplyDelta applies one update batch atomically. Inserting an existing
// edge accumulates its weight (matching the builder's duplicate handling);
// deleting an absent edge is a counted no-op; u == v addresses the
// self-loop. The batch's version is recorded if it advances the overlay's.
func (o *Overlay) ApplyDelta(d *Delta) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := d.Validate(o.base.NumVertices()); err != nil {
		return err
	}
	for _, up := range d.Updates {
		o.applyLocked(up)
	}
	if d.Version > o.version {
		o.version = d.Version
	}
	o.pending += int64(len(d.Updates))
	return nil
}

func (o *Overlay) applyLocked(up Update) {
	if up.U == up.V {
		cur, ok := o.selfOv[up.U]
		if !ok {
			cur = o.base.Self[up.U]
		}
		switch up.Op {
		case OpInsert:
			o.selfOv[up.U] = cur + up.W
			o.stats.Inserts++
			if cur > 0 {
				o.stats.Accumulated++
			}
		case OpDelete:
			if cur == 0 {
				o.stats.NoopDeletes++
				return
			}
			o.selfOv[up.U] = 0
			o.stats.Deletes++
		}
		return
	}
	baseW := o.baseWeight(up.U, up.V)
	cur := baseW
	if r := o.rows[up.U]; r != nil {
		if idx, ok := r.search(up.V); ok {
			cur = r.w[idx]
		}
	}
	switch up.Op {
	case OpInsert:
		o.setEdge(up.U, up.V, cur+up.W, baseW > 0)
		o.stats.Inserts++
		if cur > 0 {
			o.stats.Accumulated++
		} else {
			o.liveEdges++
		}
	case OpDelete:
		if cur == 0 {
			o.stats.NoopDeletes++
			return
		}
		o.setEdge(up.U, up.V, 0, baseW > 0)
		o.stats.Deletes++
		o.liveEdges--
	}
}

// baseWeight returns the frozen base's weight for edge {u, v}, or 0 if the
// base does not store it. The overlay's base buckets are sorted by V with
// distinct values (Build output, or the sorted clone NewOverlay makes of a
// contracted graph), so a binary search in the parity-hash owner's bucket
// suffices. The unsorted CSR rows cannot answer this without a linear scan.
func (o *Overlay) baseWeight(u, v int64) int64 {
	f, s := StoredOrder(u, v)
	g := o.base
	lo, hi := g.Start[f], g.End[f]
	for lo < hi {
		mid := (lo + hi) >> 1
		if g.V[mid] < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < g.End[f] && g.V[lo] == s {
		return g.W[lo]
	}
	return 0
}

// setEdge records effective weight nw for edge {u, v} on both endpoint
// rows. inBase marks whether the base stores the edge.
func (o *Overlay) setEdge(u, v, nw int64, inBase bool) {
	o.setHalf(u, v, nw, inBase)
	o.setHalf(v, u, nw, inBase)
}

func (o *Overlay) setHalf(x, v, nw int64, inBase bool) {
	r := o.rows[x]
	if r == nil {
		r = o.newRow()
		o.rows[x] = r
	}
	idx, ok := r.search(v)
	if !ok {
		r.nbr = append(r.nbr, 0)
		copy(r.nbr[idx+1:], r.nbr[idx:])
		r.nbr[idx] = v
		r.w = append(r.w, 0)
		copy(r.w[idx+1:], r.w[idx:])
		r.w[idx] = 0
		r.inBase = append(r.inBase, false)
		copy(r.inBase[idx+1:], r.inBase[idx:])
		r.inBase[idx] = inBase
	} else {
		// Retract the entry's current degree contribution before the
		// overwrite; its inBase flag never changes (the base is frozen).
		if !r.inBase[idx] && r.w[idx] > 0 {
			r.added--
		}
		if r.inBase[idx] && r.w[idx] == 0 {
			r.killed--
		}
	}
	r.w[idx] = nw
	if !r.inBase[idx] && nw > 0 {
		r.added++
	}
	if r.inBase[idx] && nw == 0 {
		r.killed++
	}
}

func (o *Overlay) newRow() *patchRow {
	if n := len(o.rowFree); n > 0 {
		r := o.rowFree[n-1]
		o.rowFree = o.rowFree[:n-1]
		return r
	}
	return &patchRow{}
}

// ShouldCompact reports whether the patch volume has crossed the compaction
// policy thresholds (pending >= 64 updates, or pending >= 25% of base
// edges). Serving loops poll this; DetectIncremental compacts
// unconditionally because the kernels consume the frozen representation.
func (o *Overlay) ShouldCompact() bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if o.pending == 0 {
		return false
	}
	return o.pending >= compactMinPending ||
		o.pending*compactFractionDen >= o.base.NumEdges()
}

// Compact folds the accumulated patches into a fresh frozen base through
// the builder pipeline and resets the patch tier. With no pending updates
// it returns the current base unchanged (idempotent). The returned graph is
// overlay-owned: it stays valid for one further compaction and is then
// recycled as the next build destination, so Clone it for longer keeps. The
// base passed to NewOverlay is never written.
func (o *Overlay) Compact() (*Graph, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.pending == 0 {
		return o.base, nil
	}
	g := o.base
	n := g.NumVertices()
	edges := o.edgeBuf[:0]
	// Materialize the merged view one stored row at a time, in (U, V)
	// order, so BuildInto's presort check skips the O(E log E) sort: for
	// each bucket-owner vertex x the walk merges the base bucket (V
	// ascending, shadowed entries taking their patched weight), the
	// patch-only entries x owns under StoredOrder, and the row's self-loop
	// at its V == x slot. Every live edge is emitted exactly once from its
	// owner row, already oriented, so the builder's orientation pass leaves
	// the order intact.
	for x := int64(0); x < n; x++ {
		r := o.rows[x]
		self := g.Self[x]
		if ov, ok := o.selfOv[x]; ok {
			self = ov
		}
		emit := func(v, w int64) {
			if self > 0 && x < v {
				edges = append(edges, Edge{x, x, self})
				self = 0
			}
			edges = append(edges, Edge{x, v, w})
		}
		e, pi := g.Start[x], 0
		for e < g.End[x] || (r != nil && pi < len(r.nbr)) {
			if r == nil || pi >= len(r.nbr) {
				emit(g.V[e], g.W[e])
				e++
				continue
			}
			pv := r.nbr[pi]
			switch {
			case e >= g.End[x] || pv < g.V[e]:
				// Patch entry with no base edge at this slot: emit it only
				// if it is live, patch-only, and x is its stored owner (the
				// symmetric copy on the other row covers the rest).
				if !r.inBase[pi] && r.w[pi] > 0 {
					if f, _ := StoredOrder(x, pv); f == x {
						emit(pv, r.w[pi])
					}
				}
				pi++
			case pv == g.V[e]:
				// Shadow entry: the patched weight replaces the base edge
				// (zero = tombstone, dropped).
				if r.w[pi] > 0 {
					emit(pv, r.w[pi])
				}
				e++
				pi++
			default:
				emit(g.V[e], g.W[e])
				e++
			}
		}
		if self > 0 {
			edges = append(edges, Edge{x, x, self})
		}
	}
	o.edgeBuf = edges

	ng, err := BuildInto(o.p, n, edges, o.spare, &o.build)
	if err != nil {
		return nil, err
	}
	if o.baseOwned {
		o.spare = o.base
	} else {
		o.spare = nil
	}
	o.base = ng
	o.baseOwned = true
	o.csrStale = true

	for k, r := range o.rows {
		r.reset()
		o.rowFree = append(o.rowFree, r)
		delete(o.rows, k)
	}
	clear(o.selfOv)
	o.pending = 0
	o.liveEdges = ng.NumEdges()
	o.stats.Compactions++
	return ng, nil
}
