package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/buf"
	"repro/internal/par"
)

// Overlay is the mutable tier of the two-tier dynamic graph store. The
// frozen tier is a Graph plus its CSR view; the overlay layers per-vertex
// adjacency patches on top so edge inserts and deletes land in O(log d)
// without touching the base arrays. Readers see the merged view through
// Degree, ForNeighbors, SelfLoop, WeightedDegrees and TotalWeight, and
// Compact folds the accumulated patches back into the frozen base.
//
// Patches are symmetric: every non-self update is recorded on both endpoint
// rows, so a single row lookup answers any adjacency question. A patch entry
// stores the edge's full effective weight (not a diff); weight zero is a
// tombstone. Base rows are never modified between compactions — an entry
// flagged inBase shadows the corresponding base edge.
//
// ApplyDelta runs row-owned in parallel: every worker scans the batch in
// order and applies the half-updates whose row it owns, so each row sees
// its updates in batch order and no row is written by two workers.
//
// The base passed to NewOverlay is never written. The first Compact
// repacks the merged view into an overlay-owned graph in Build layout with
// tail headroom; later compactions rewrite only the patched buckets of
// that graph in place (a bucket that outgrew its slot moves to the tail)
// until the tail or the abandoned slots call for another repack.
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

	// rowOf[x] is vertex x's patch row, nil while x has none. The dense
	// index lets apply workers reach the rows they own without a shared map.
	rowOf []*patchRow
	// parts holds one entry per apply worker: its partial counters, its
	// free rows, and the vertices whose rows it created since the last
	// compaction.
	parts []applyPart

	// deg[x] is x's weighted degree in the merged view (twice its
	// self-loop plus its incident edge weights) and totW the merged total
	// weight Σ W + Σ Self; ApplyDelta keeps both current per update.
	deg  []int64
	totW int64

	version   uint64
	pending   int64
	liveEdges int64
	stats     OverlayStats

	// packed marks a base this overlay built by a repack, which later
	// compactions patch in place. slot[x] is the capacity of x's slot
	// [Start[x], Start[x]+slot[x]) in it, and dead counts the slot entries
	// that relocated buckets abandoned since the repack.
	packed bool
	slot   []int64
	dead   int64

	// Compaction scratch: the patched vertices in ascending order and
	// their total merge work, the worker range boundaries, one merge
	// buffer per worker, and the graph a repack is writing. Steady-state
	// in-place compaction allocates nothing.
	touched []touchedRow
	work    int64
	bounds  []int
	rowBufs []*Graph
	dst     *Graph
}

// applyCounts is one apply worker's counter partials for one batch: the
// update counters, the live-edge change and the total-weight change.
type applyCounts struct {
	stats  OverlayStats
	live   int64
	weight int64
}

// applyPart is one apply worker's state. The counters are folded into the
// overlay after each batch; free and patched persist.
type applyPart struct {
	applyCounts
	free    []*patchRow
	patched []int64
}

// touchedRow is one patched vertex at compaction: its patch row, its merged
// self-loop weight, the exclusive prefix of the merge work of the rows
// before it (the passes are scheduled on it), and, for an in-place
// compaction, its merged bucket length, that bucket's offset in its
// worker's merge buffer, and its destination and slot capacity.
type touchedRow struct {
	x    int64
	r    *patchRow
	self int64
	work int64
	l    int64
	at   int64
	dst  int64
	slot int64
}

// OverlayStats counts the update traffic an overlay has absorbed. All
// fields are cumulative across compactions.
type OverlayStats struct {
	// Batches counts accepted ApplyDelta calls.
	Batches int64
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
	// Compactions counts Compact calls that folded pending updates.
	Compactions int64
	// Repacks counts the compactions that rebuilt the base in Build layout
	// instead of patching it in place.
	Repacks int64
}

func (s *OverlayStats) add(d OverlayStats) {
	s.Inserts += d.Inserts
	s.Accumulated += d.Accumulated
	s.Deletes += d.Deletes
	s.NoopDeletes += d.NoopDeletes
}

const (
	// compactMinPending is ShouldCompact's absolute pending-update
	// threshold.
	compactMinPending = 64
	// compactFractionDen sets the fractional bounds (1/compactFractionDen,
	// 25%): ShouldCompact fires once pending exceeds that share of the base
	// edges, a repack leaves that share of tail headroom, a relocated
	// bucket gets that share of slack, and in-place compaction gives way to
	// a repack once abandoned slots exceed that share of the edges.
	compactFractionDen = 4
	// applyGrain is the number of updates per ApplyDelta worker: smaller
	// batches apply on the caller.
	applyGrain = 512
)

// patchRow is one vertex's adjacency patch: neighbor ids sorted ascending,
// parallel effective weights (0 = tombstone), and a flag marking entries
// that shadow a base edge. added/killed cache the row's net degree delta;
// self holds the vertex's merged self-loop weight when selfSet.
type patchRow struct {
	nbr     []int64
	w       []int64
	inBase  []bool
	added   int64
	killed  int64
	self    int64
	selfSet bool
}

// search returns the lower-bound insertion index for v and whether v is
// already present.
func (r *patchRow) search(v int64) (idx int, ok bool) {
	idx = lowerBound(r.nbr, v)
	return idx, idx < len(r.nbr) && r.nbr[idx] == v
}

// lowerBound returns the index of the first entry of the ascending ids
// that is not below v. Hot rows and buckets take thousands of lookups per
// batch whose comparisons a branch predictor cannot learn, so the halving
// step is branch-free: the sign bit of xs[m]-v (vertex ids are
// non-negative, so the difference cannot overflow) masks the step.
func lowerBound(xs []int64, v int64) int {
	if len(xs) == 0 {
		return 0
	}
	base, n := 0, len(xs)
	for n > 1 {
		half := n >> 1
		base += half & -int(uint64(xs[base+half]-v)>>63)
		n -= half
	}
	return base + int(uint64(xs[base]-v)>>63)
}

func (r *patchRow) reset() {
	r.nbr = r.nbr[:0]
	r.w = r.w[:0]
	r.inBase = r.inBase[:0]
	r.added, r.killed = 0, 0
	r.self, r.selfSet = 0, false
}

// NewOverlay wraps base in a mutable overlay using p workers (0 = all) for
// applies, view rebuilds and compactions. The overlay never writes to base;
// the first Compact repacks into an overlay-owned graph.
//
// Base lookups and Compact's merge walk need buckets sorted by V, which
// Build guarantees but contraction does not (it keeps first-seen order).
// When the CSR pass finds an unsorted bucket, the overlay adopts a private
// clone with every bucket sorted as its base; the CSR rows hold the same
// entries either way. The merged weighted degrees and total weight are computed
// here once and kept current by ApplyDelta.
func NewOverlay(p int, base *Graph) *Overlay {
	if p <= 0 {
		p = par.DefaultThreads()
	}
	o := &Overlay{
		p:     p,
		base:  base,
		rowOf: make([]*patchRow, base.NumVertices()),
		parts: make([]applyPart, 1),
	}
	if _, sorted := toCSRInto(p, base, &o.csr); !sorted {
		o.base = base.Clone()
		o.base.sortBuckets(p)
	}
	o.csr.dropBuildState()
	o.liveEdges = base.NumEdges()
	o.deg = base.WeightedDegrees(p)
	o.totW = base.TotalWeight(p)
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

// WeightedDegrees returns every vertex's weighted degree in the merged view:
// twice its self-loop plus the weights of its live edges, the figure
// Graph.WeightedDegrees gives for the compacted base. The slice is the
// overlay's own, kept current by ApplyDelta: read-only, and valid as a
// snapshot only until the next ApplyDelta.
func (o *Overlay) WeightedDegrees() []int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.deg
}

// TotalWeight returns the merged view's total edge weight, Σ W + Σ Self with
// each undirected edge counted once: Graph.TotalWeight of the compacted
// base.
func (o *Overlay) TotalWeight() int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.totW
}

// Base returns the current frozen base. It reflects updates only up to the
// last compaction; treat it as read-only. It is valid until the next
// Compact, which either patches it in place or replaces it — Clone it to
// keep it longer.
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
			o.csr.dropBuildState()
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
	if r := o.rowOf[x]; r != nil {
		d += r.added - r.killed
	}
	return d
}

// SelfLoop returns the merged self-loop weight of vertex x.
func (o *Overlay) SelfLoop(x int64) int64 {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if r := o.rowOf[x]; r != nil && r.selfSet {
		return r.self
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
	r := o.rowOf[x]
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

// ApplyDelta applies one update batch atomically. Inserting an existing
// edge accumulates its weight (matching the builder's duplicate handling);
// deleting an absent edge is a counted no-op; u == v addresses the
// self-loop. The batch's version is recorded if it advances the overlay's.
// A batch with an endpoint out of range, a non-positive insert weight, or
// insert weights that could push the merged total weight past MaxInt64/2
// is rejected before any update lands.
//
// Batches of at least two applyGrain-sized shares run on up to p workers.
// Each worker owns the rows of a hashed share of the vertices (rowOwner),
// scans the whole batch in order and applies the halves on its own rows. Both halves of an edge update price
// it from their own row, and the rows are symmetric, so they agree on the
// weight; the counters are taken once per update, on its U half, in
// per-worker partials.
func (o *Overlay) ApplyDelta(d *Delta) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := d.Validate(o.base.NumVertices()); err != nil {
		return err
	}
	if err := o.checkWeight(d); err != nil {
		return err
	}
	ups := d.Updates
	w := par.Workers(o.p, len(ups)/applyGrain)
	if len(o.parts) < w {
		o.parts = append(o.parts, make([]applyPart, w-len(o.parts))...)
	}
	if w == 1 {
		o.applyOwned(ups, 0, 1)
	} else {
		par.For(w, w, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				o.applyOwned(ups, k, w)
			}
		})
	}
	for k := range o.parts[:w] {
		c := &o.parts[k].applyCounts
		o.stats.add(c.stats)
		o.liveEdges += c.live
		o.totW += c.weight
	}
	o.stats.Batches++
	if d.Version > o.version {
		o.version = d.Version
	}
	o.pending += int64(len(ups))
	return nil
}

// checkWeight rejects a batch whose insert weights could push the merged
// total weight past MaxTotalWeight. Deletes are not credited, so the
// bound holds at every point of the batch.
func (o *Overlay) checkWeight(d *Delta) error {
	room := MaxTotalWeight - o.totW
	for i, up := range d.Updates {
		if up.Op != OpInsert {
			continue
		}
		if up.W > room {
			return fmt.Errorf("graph: delta update %d inserts weight %d, which could push the total edge weight %d past %d: %w",
				i, up.W, o.totW, int64(MaxTotalWeight), ErrWeightOverflow)
		}
		room -= up.W
	}
	return nil
}

// rowOwner is the apply worker, of w, that owns vertex x's row: a
// multiplicative hash of x's eight-row group scaled to [0, w), so
// neighboring rows, which share a cache line of the degree array, stay
// with one worker.
func rowOwner(x int64, w int) int {
	h := (uint64(x) >> 3) * 0x9E3779B97F4A7C15
	return int(((h >> 32) * uint64(w)) >> 32)
}

// applyOwned applies, in batch order, the halves of ups whose rows worker
// k of w owns.
func (o *Overlay) applyOwned(ups []Update, k, w int) {
	pt := &o.parts[k]
	var c applyCounts // counted locally, stored once
	for _, up := range ups {
		ownU := rowOwner(up.U, w) == k
		if up.U == up.V {
			if ownU {
				o.applySelf(pt, &c, up)
			}
			continue
		}
		ownV := rowOwner(up.V, w) == k
		if !ownU && !ownV {
			continue
		}
		// Price the edge on the first owned endpoint's row x; the same
		// lookup places that half.
		x, y := up.U, up.V
		if !ownU {
			x, y = y, x
		}
		r := o.rowOf[x]
		idx, found := 0, false
		if r != nil {
			idx, found = r.search(y)
		}
		var cur int64
		var inBase bool
		if found {
			cur, inBase = r.w[idx], r.inBase[idx]
		} else {
			cur = o.baseWeight(x, y)
			inBase = cur > 0
		}
		nw := int64(0)
		switch up.Op {
		case OpInsert:
			nw = cur + up.W
		case OpDelete:
			if cur == 0 {
				if ownU {
					c.stats.NoopDeletes++
				}
				continue
			}
		}
		o.setAt(pt, x, r, idx, found, y, cur, nw, inBase)
		if ownU && ownV {
			r := o.rowOf[y]
			idx, found := 0, false
			if r != nil {
				idx, found = r.search(x)
			}
			o.setAt(pt, y, r, idx, found, x, cur, nw, inBase)
		}
		if ownU {
			if up.Op == OpInsert {
				c.stats.Inserts++
				if cur > 0 {
					c.stats.Accumulated++
				} else {
					c.live++
				}
			} else {
				c.stats.Deletes++
				c.live--
			}
			c.weight += nw - cur
		}
	}
	pt.applyCounts = c
}

// applySelf applies a self-loop update on its row.
func (o *Overlay) applySelf(pt *applyPart, c *applyCounts, up Update) {
	x := up.U
	cur := o.base.Self[x]
	if r := o.rowOf[x]; r != nil && r.selfSet {
		cur = r.self
	}
	nw := int64(0)
	switch up.Op {
	case OpInsert:
		nw = cur + up.W
		c.stats.Inserts++
		if cur > 0 {
			c.stats.Accumulated++
		}
	case OpDelete:
		if cur == 0 {
			c.stats.NoopDeletes++
			return
		}
		c.stats.Deletes++
	}
	r := o.row(pt, x)
	r.self, r.selfSet = nw, true
	o.deg[x] += 2 * (nw - cur)
	c.weight += nw - cur
}

// baseWeight returns the frozen base's weight for edge {u, v}, or 0 if the
// base does not store it. The overlay's base buckets are sorted by V with
// distinct values (Build output, a compaction's merge, or the sorted clone
// NewOverlay makes of a contracted graph), so a binary search in the
// parity-hash owner's bucket suffices. The unsorted CSR rows cannot answer
// this without a linear scan.
func (o *Overlay) baseWeight(u, v int64) int64 {
	f, s := StoredOrder(u, v)
	g := o.base
	lo := g.Start[f]
	b := g.V[lo:g.End[f]]
	if i := lowerBound(b, s); i < len(b) && b[i] == s {
		return g.W[lo+int64(i)]
	}
	return 0
}

// row returns x's patch row, taking one from pt's free list (or a new one)
// and recording x as patched when x has none.
func (o *Overlay) row(pt *applyPart, x int64) *patchRow {
	if r := o.rowOf[x]; r != nil {
		return r
	}
	var r *patchRow
	if n := len(pt.free); n > 0 {
		r = pt.free[n-1]
		pt.free = pt.free[:n-1]
	} else {
		r = &patchRow{}
	}
	o.rowOf[x] = r
	pt.patched = append(pt.patched, x)
	return r
}

// setAt records effective weight nw (was cur) for edge {x, v} on x's row
// r (nil when x has none yet), where search put v at idx (found: v is
// already there). inBase marks whether the base stores the edge.
func (o *Overlay) setAt(pt *applyPart, x int64, r *patchRow, idx int, found bool, v, cur, nw int64, inBase bool) {
	if r == nil {
		r = o.row(pt, x)
	}
	if !found {
		r.nbr = slices.Insert(r.nbr, idx, v)
		r.w = slices.Insert(r.w, idx, 0)
		r.inBase = slices.Insert(r.inBase, idx, inBase)
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
	o.deg[x] += nw - cur
}

// ShouldCompact reports whether the patch volume has crossed the compaction
// policy thresholds (pending >= 64 updates, or pending >= 25% of base
// edges). Serving loops poll this; DetectIncrementalWithContext compacts
// unconditionally because the kernels consume the frozen representation,
// which in-place compaction keeps cheap: its cost follows the patched rows,
// not the graph.
func (o *Overlay) ShouldCompact() bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if o.pending == 0 {
		return false
	}
	return o.pending >= compactMinPending ||
		o.pending*compactFractionDen >= o.base.NumEdges()
}

// Compact folds the accumulated patches into the frozen base and resets
// the patch tier. With no pending updates it returns the current base
// unchanged (idempotent). The returned graph is overlay-owned and valid
// until the next Compact, which patches it in place or replaces it: Clone
// it to keep it longer. The base passed to NewOverlay is never written.
// The error is always nil.
//
// The first compaction after NewOverlay, and any compaction the in-place
// rule refuses, repacks: the merged view is written into a fresh graph in
// the layout Build gives the same edges (buckets contiguous in vertex
// order, V ascending, Start = End = 0 when empty), with 1/compactFractionDen
// of the edge count as tail headroom. Every other compaction rewrites only
// the patched buckets: each merges into its worker's row buffer, then one
// that fits its slot is copied back there and one that outgrew it moves
// to the tail into a slot with 1/compactFractionDen slack, at an offset
// from one exclusive sum over the moved buckets. Untouched buckets keep
// their slots and bytes. The rule refuses, and a repack runs, when the tail
// cannot take the moved buckets or the slots they abandoned since the last
// repack would exceed 1/compactFractionDen of the edges.
func (o *Overlay) Compact() (*Graph, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.pending == 0 {
		return o.base, nil
	}
	work := o.collectTouched()
	if !o.packed || !o.patchInPlace(work) {
		o.repack(work)
	}
	o.csrStale = true
	o.releaseRows()
	o.pending = 0
	o.liveEdges = o.base.m
	o.stats.Compactions++
	return o.base, nil
}

// collectTouched lists every patched vertex in o.touched, ascending, and
// returns their total merge work.
func (o *Overlay) collectTouched() int64 {
	t := o.touched[:0]
	for k := range o.parts {
		for _, x := range o.parts[k].patched {
			t = append(t, touchedRow{x: x, r: o.rowOf[x]})
		}
	}
	slices.SortFunc(t, func(a, b touchedRow) int { return cmp.Compare(a.x, b.x) })
	g := o.base
	var work int64
	for i := range t {
		tr := &t[i]
		tr.self = g.Self[tr.x]
		if tr.r.selfSet {
			tr.self = tr.r.self
		}
		tr.work = work
		if len(tr.r.nbr) > 0 {
			work += g.End[tr.x] - g.Start[tr.x] + int64(len(tr.r.nbr))
		}
		work++
	}
	o.touched, o.work = t, work
	return work
}

// releaseRows returns every patch row to the apply workers' free lists.
func (o *Overlay) releaseRows() {
	for i, tr := range o.touched {
		tr.r.reset()
		o.rowOf[tr.x] = nil
		pt := &o.parts[i%len(o.parts)]
		pt.free = append(pt.free, tr.r)
	}
	for k := range o.parts {
		o.parts[k].patched = o.parts[k].patched[:0]
	}
}

// patchInPlace rewrites the patched buckets of the packed base and
// reports whether it did; false leaves the base untouched for a repack.
func (o *Overlay) patchInPlace(work int64) bool {
	g, t := o.base, o.touched
	o.splitRanges(len(t), work, func(i int) int64 { return t[i].work })
	for len(o.rowBufs) < len(o.bounds)-1 {
		o.rowBufs = append(o.rowBufs, &Graph{})
	}
	o.runRanges((*Overlay).mergeRows)

	// Place each rewritten bucket: in its slot when it fits, else at the
	// tail in a slot with slack.
	tail := int64(len(g.V))
	var moved, freed int64
	m := g.m
	for i := range t {
		tr := &t[i]
		if len(tr.r.nbr) == 0 {
			continue
		}
		x := tr.x
		m += tr.l - (g.End[x] - g.Start[x])
		tr.dst, tr.slot = g.Start[x], o.slot[x]
		if tr.l > tr.slot {
			freed += tr.slot
			tr.slot = tr.l + tr.l/compactFractionDen + 1
			tr.dst = tail + moved
			moved += tr.slot
		}
	}
	room := int64(min(cap(g.V), cap(g.W)))
	if tail+moved > room || o.dead+freed > m/compactFractionDen {
		return false
	}
	o.dead += freed
	end := tail + moved
	g.V, g.W = g.V[:end], g.W[:end]
	o.runRanges((*Overlay).placeRows)
	g.m = m
	return true
}

// mergeRows merges the patched buckets of touched rows [lo, hi) into worker
// k's row buffer, back to back, recording each one's offset and length.
// The merge cannot go straight into the slot: an early patch insert would
// let the write cursor overtake the base entries still to be read.
func (o *Overlay) mergeRows(k, lo, hi int) {
	if lo >= hi {
		return
	}
	g, t := o.base, o.touched
	end := o.work
	if hi < len(t) {
		end = t[hi].work
	}
	b := o.rowBufs[k]
	b.ResizeEdges(end - t[lo].work)
	var at int64
	for i := lo; i < hi; i++ {
		tr := &t[i]
		if len(tr.r.nbr) == 0 {
			continue
		}
		tr.at = at
		tr.l = mergeRow(g, tr.x, tr.r, b, at)
		at += tr.l
	}
}

// placeRows copies the merged buckets of touched rows [lo, hi) from worker
// k's row buffer to their destinations and updates their bounds, slots and
// self-loops.
func (o *Overlay) placeRows(k, lo, hi int) {
	g, b := o.base, o.rowBufs[k]
	for i := lo; i < hi; i++ {
		tr := &o.touched[i]
		x := tr.x
		g.Self[x] = tr.self
		if len(tr.r.nbr) == 0 {
			continue
		}
		copyEdges(g, tr.dst, b, tr.at, tr.at+tr.l)
		g.Start[x], g.End[x] = tr.dst, tr.dst+tr.l
		o.slot[x] = tr.slot
	}
}

// repack writes the merged view into a fresh graph in Build layout with
// tail headroom and adopts it as the packed base, in three steps: a count
// pass sets every bucket's merged length (an untouched bucket keeps its
// base length; a patched row runs mergeRow without output), one exclusive
// prefix sum turns the lengths into Start, and a fill pass bulk-copies runs
// of untouched buckets and merges the patched rows in place.
func (o *Overlay) repack(work int64) {
	g := o.base
	n := int(g.n)
	dst := &Graph{}
	dst.ResizeVertices(g.n)
	o.dst = dst
	o.slot = buf.Grow(o.slot, n)

	// Count: base lengths everywhere, then the patched rows' merge walks,
	// scheduled on their walk lengths (hub rows are long).
	o.splitRanges(n, int64(n), func(x int) int64 { return int64(x) })
	o.runRanges((*Overlay).baseLengths)
	t := o.touched
	o.splitRanges(len(t), work, func(i int) int64 { return t[i].work })
	o.runRanges((*Overlay).countRows)

	m := par.ExclusiveSumInt64(o.p, dst.Start)
	room := m + m/compactFractionDen
	dst.V, dst.W = make([]int64, m, room), make([]int64, m, room)

	// Fill, scheduled on output edges plus one unit per vertex: Start[x] + x
	// is that weight's exclusive prefix until fillRange zeroes the empty
	// buckets' Start.
	start := dst.Start
	o.splitRanges(n, m+int64(n), func(x int) int64 { return start[x] + int64(x) })
	o.runRanges((*Overlay).fillRange)
	dst.setCounts(g.n, m)

	o.base, o.dst = dst, nil
	o.packed, o.dead = true, 0
	o.stats.Repacks++
}

// splitRanges cuts n items into at most o.p ranges of about equal weight
// and stores their boundaries in o.bounds. prefix(i) is the nondecreasing
// exclusive weight prefix of item i and total the weight of all n items.
func (o *Overlay) splitRanges(n int, total int64, prefix func(i int) int64) {
	w := par.Workers(o.p, n)
	b := buf.Grow(o.bounds, w+1)
	b[0], b[w] = 0, n
	for k := 1; k < w; k++ {
		target := total * int64(k) / int64(w)
		b[k] = sort.Search(n, func(i int) bool { return prefix(i) >= target })
	}
	o.bounds = b
}

// runRanges runs pass once per range k in o.bounds, each on its own worker.
// A single range runs on the caller without creating a closure, which keeps
// serial compaction allocation-free.
func (o *Overlay) runRanges(pass func(o *Overlay, k, lo, hi int)) {
	b := o.bounds
	w := len(b) - 1
	if w == 1 {
		pass(o, 0, b[0], b[1])
		return
	}
	par.For(w, w, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			pass(o, k, b[k], b[k+1])
		}
	})
}

// baseLengths stores the base bucket lengths of vertices [lo, hi) in
// o.dst.Start.
func (o *Overlay) baseLengths(_, lo, hi int) {
	g, dst := o.base, o.dst
	for x := lo; x < hi; x++ {
		dst.Start[x] = g.End[x] - g.Start[x]
	}
}

// countRows stores the merged bucket length of touched rows [lo, hi) in
// o.dst.Start, replacing the base length. Rows with only a self-loop
// change keep it.
func (o *Overlay) countRows(_, lo, hi int) {
	for _, tr := range o.touched[lo:hi] {
		if len(tr.r.nbr) > 0 {
			o.dst.Start[tr.x] = mergeRow(o.base, tr.x, tr.r, nil, 0)
		}
	}
}

// fillRange writes the merged buckets and self-loops of vertices [lo, hi)
// into o.dst, whose Start holds the bucket offsets, and records each
// bucket's length as its slot. Consecutive untouched buckets that sit back
// to back in the base are copied as one run; patched rows flush the run
// and merge in place. Empty buckets get Start = End = 0.
func (o *Overlay) fillRange(_, lo, hi int) {
	g, t, dst := o.base, o.touched, o.dst
	copy(dst.Self[lo:hi], g.Self[lo:hi])
	i, _ := slices.BinarySearchFunc(t, int64(lo), func(tr touchedRow, x int64) int { return cmp.Compare(tr.x, x) })
	// Base edges [runLo, runHi) are still to be copied to dst from runAt.
	var runLo, runHi, runAt int64
	for x := lo; x < hi; x++ {
		at := dst.Start[x]
		var r *patchRow
		if i < len(t) && t[i].x == int64(x) {
			dst.Self[x] = t[i].self
			if len(t[i].r.nbr) > 0 {
				r = t[i].r
			}
			i++
		}
		var l int64
		if r != nil {
			copyEdges(dst, runAt, g, runLo, runHi)
			runLo, runHi = 0, 0
			l = mergeRow(g, int64(x), r, dst, at)
		} else if s, e := g.Start[x], g.End[x]; e > s {
			if s != runHi || at != runAt+runHi-runLo {
				copyEdges(dst, runAt, g, runLo, runHi)
				runLo, runHi, runAt = s, s, at
			}
			runHi = e
			l = e - s
		}
		if l == 0 {
			dst.Start[x], dst.End[x] = 0, 0
		} else {
			dst.End[x] = at + l
		}
		o.slot[x] = l
	}
	copyEdges(dst, runAt, g, runLo, runHi)
}

// copyEdges copies g's edges [lo, hi) to dst's edge arrays from index at.
func copyEdges(dst *Graph, at int64, g *Graph, lo, hi int64) {
	to := at + hi - lo
	copy(dst.V[at:to], g.V[lo:hi])
	copy(dst.W[at:to], g.W[lo:hi])
}

// mergeRow is the merge walk every compaction pass shares. It walks x's
// base bucket (V ascending) against x's patch row r (ascending) and returns
// the length of x's merged bucket: base edges r does not mention keep their
// weight, shadowed ones take the patched weight, tombstones drop out, and a
// live patch-only edge lands only on the row that owns it under
// StoredOrder (the other endpoint's row holds the symmetric copy). With a
// non-nil out it also writes the merged bucket to out's edge arrays from
// index at; out must not alias g's bucket of x.
func mergeRow(g *Graph, x int64, r *patchRow, out *Graph, at int64) int64 {
	e, end := g.Start[x], g.End[x]
	k := at
	for pi, pv := range r.nbr {
		j := e
		for j < end && g.V[j] < pv {
			j++
		}
		if out != nil {
			copyEdges(out, k, g, e, j)
		}
		k += j - e
		e = j
		if e < end && g.V[e] == pv {
			e++ // shadowed: the patched weight replaces the base edge
		} else if f, _ := StoredOrder(x, pv); r.inBase[pi] || f != x {
			continue // stored in pv's bucket
		}
		w := r.w[pi]
		if w == 0 {
			continue // tombstone
		}
		if out != nil {
			out.V[k], out.W[k] = pv, w
		}
		k++
	}
	if out != nil {
		copyEdges(out, k, g, e, end)
	}
	return k + end - e - at
}
