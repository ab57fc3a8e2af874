package graph

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"repro/internal/buf"
	"repro/internal/par"
)

// Overlay is the mutable tier of the two-tier dynamic graph store. The
// frozen tier is an immutable Graph plus its CSR view; the overlay layers
// per-vertex adjacency patches on top so edge inserts and deletes land in
// O(log d) without touching the base arrays. Readers see the merged view
// through the AdjacencyView contract (Degree, ForNeighbors, SelfLoop), and
// Compact folds the accumulated patches back into a fresh frozen base by a
// parallel per-row merge that copies untouched buckets wholesale.
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

	// Compaction scratch: the patched vertices in ascending order, the
	// worker range boundaries, and the previous overlay-owned base recycled
	// as the next destination. Steady-state compaction allocates nothing.
	touched   []touchedRow
	bounds    []int
	spare     *Graph
	baseOwned bool
}

// touchedRow is one vertex the pending patches touch: its patch row (nil
// when only its self-loop changed), its merged self-loop weight, and the
// exclusive prefix of the merge work of the rows before it, which the count
// pass is scheduled on.
type touchedRow struct {
	x    int64
	r    *patchRow
	self int64
	work int64
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
// last compaction; treat it as read-only. It is recycled as the destination
// of the compaction after next — Clone it to keep it longer.
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

// Compact folds the accumulated patches into a fresh frozen base and resets
// the patch tier. With no pending updates it returns the current base
// unchanged (idempotent). The returned graph is overlay-owned: it stays
// valid for one further compaction and is then recycled as the next
// compaction's destination, so Clone it for longer keeps. The base passed
// to NewOverlay is never written. The error is always nil.
//
// The new base is written straight into the recycled graph in three steps:
// a count pass sets every bucket's merged length (an untouched bucket keeps
// its base length; a patched row runs mergeRow without output), one
// exclusive prefix sum turns the lengths into Start, and a fill pass
// bulk-copies runs of untouched buckets and merges the patched rows in
// place. The layout is the one Build gives the same edges: buckets
// contiguous in vertex order, V ascending, Start = End = 0 when empty.
func (o *Overlay) Compact() (*Graph, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.pending == 0 {
		return o.base, nil
	}
	g := o.base
	n := int(g.n)
	dst := o.spare
	if dst == nil {
		dst = &Graph{}
	}
	dst.ResizeVertices(g.n)
	work := o.collectTouched()

	// Count: base lengths everywhere, then the patched rows' merge walks,
	// scheduled on their walk lengths (hub rows are long).
	o.splitRanges(n, int64(n), func(x int) int64 { return int64(x) })
	o.runRanges(dst, (*Overlay).baseLengths)
	t := o.touched
	o.splitRanges(len(t), work, func(i int) int64 { return t[i].work })
	o.runRanges(dst, (*Overlay).countRows)

	m := par.ExclusiveSumInt64(o.p, dst.Start)
	dst.ResizeEdges(m)

	// Fill, scheduled on output edges plus one unit per vertex: Start[x] + x
	// is that weight's exclusive prefix until fillRange zeroes the empty
	// buckets' Start.
	start := dst.Start
	o.splitRanges(n, m+int64(n), func(x int) int64 { return start[x] + int64(x) })
	o.runRanges(dst, (*Overlay).fillRange)
	dst.setCounts(g.n, m)

	if o.baseOwned {
		o.spare = o.base
	} else {
		o.spare = nil
	}
	o.base = dst
	o.baseOwned = true
	o.csrStale = true

	for k, r := range o.rows {
		r.reset()
		o.rowFree = append(o.rowFree, r)
		delete(o.rows, k)
	}
	clear(o.selfOv)
	o.pending = 0
	o.liveEdges = m
	o.stats.Compactions++
	return dst, nil
}

// collectTouched lists every vertex with a patch row or a self-loop
// override in o.touched, ascending, and returns their total merge work.
func (o *Overlay) collectTouched() int64 {
	t := o.touched[:0]
	for x, r := range o.rows {
		t = append(t, touchedRow{x: x, r: r})
	}
	for x := range o.selfOv {
		if o.rows[x] == nil {
			t = append(t, touchedRow{x: x})
		}
	}
	slices.SortFunc(t, func(a, b touchedRow) int { return cmp.Compare(a.x, b.x) })
	g := o.base
	var work int64
	for i := range t {
		tr := &t[i]
		tr.self = g.Self[tr.x]
		if s, ok := o.selfOv[tr.x]; ok {
			tr.self = s
		}
		tr.work = work
		if tr.r != nil {
			work += g.End[tr.x] - g.Start[tr.x] + int64(len(tr.r.nbr))
		}
		work++
	}
	o.touched = t
	return work
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

// runRanges runs pass once per range in o.bounds, each on its own worker.
// A single range runs on the caller without creating a closure, which keeps
// serial compaction allocation-free.
func (o *Overlay) runRanges(dst *Graph, pass func(o *Overlay, dst *Graph, lo, hi int)) {
	b := o.bounds
	w := len(b) - 1
	if w == 1 {
		pass(o, dst, b[0], b[1])
		return
	}
	par.For(w, w, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			pass(o, dst, b[k], b[k+1])
		}
	})
}

// baseLengths stores the base bucket lengths of vertices [lo, hi) in
// dst.Start.
func (o *Overlay) baseLengths(dst *Graph, lo, hi int) {
	g := o.base
	for x := lo; x < hi; x++ {
		dst.Start[x] = g.End[x] - g.Start[x]
	}
}

// countRows stores the merged bucket length of touched rows [lo, hi) in
// dst.Start, replacing the base length. Rows with only a self-loop change
// keep it.
func (o *Overlay) countRows(dst *Graph, lo, hi int) {
	for _, tr := range o.touched[lo:hi] {
		if tr.r != nil {
			dst.Start[tr.x] = mergeRow(o.base, tr.x, tr.r, nil, 0)
		}
	}
}

// fillRange writes the merged buckets and self-loops of vertices [lo, hi)
// into dst, whose Start holds the bucket offsets. Consecutive untouched
// buckets that sit back to back in the base are copied as one run; patched
// rows flush the run and merge in place. Empty buckets get Start = End = 0.
func (o *Overlay) fillRange(dst *Graph, lo, hi int) {
	g, t := o.base, o.touched
	copy(dst.Self[lo:hi], g.Self[lo:hi])
	i, _ := slices.BinarySearchFunc(t, int64(lo), func(tr touchedRow, x int64) int { return cmp.Compare(tr.x, x) })
	// Base edges [runLo, runHi) are still to be copied to dst from runAt.
	var runLo, runHi, runAt int64
	for x := lo; x < hi; x++ {
		at := dst.Start[x]
		var r *patchRow
		if i < len(t) && t[i].x == int64(x) {
			dst.Self[x] = t[i].self
			r = t[i].r
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
	}
	copyEdges(dst, runAt, g, runLo, runHi)
}

// copyEdges copies g's edges [lo, hi) to dst's edge arrays from index at.
func copyEdges(dst *Graph, at int64, g *Graph, lo, hi int64) {
	to := at + hi - lo
	copy(dst.U[at:to], g.U[lo:hi])
	copy(dst.V[at:to], g.V[lo:hi])
	copy(dst.W[at:to], g.W[lo:hi])
}

// mergeRow is the merge walk both compaction passes share. It walks x's
// base bucket (V ascending) against x's patch row r (ascending) and returns
// the length of x's merged bucket: base edges r does not mention keep their
// weight, shadowed ones take the patched weight, tombstones drop out, and a
// live patch-only edge lands only on the row that owns it under
// StoredOrder (the other endpoint's row holds the symmetric copy). With a
// non-nil out it also writes the merged bucket to out's edge arrays from
// index at.
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
			out.U[k], out.V[k], out.W[k] = x, pv, w
		}
		k++
	}
	if out != nil {
		copyEdges(out, k, g, e, end)
	}
	return k + end - e - at
}
