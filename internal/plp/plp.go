// Package plp implements parallel label propagation (PLP) — the near-linear
// coarsening pass of Staudt & Meyerhenke's "Engineering Parallel Algorithms
// for Community Detection in Massive Networks" (see PAPERS.md). Every vertex
// starts in its own community and repeatedly adopts the dominant label of its
// neighborhood (the label with the largest incident edge weight); after a
// handful of sweeps most of the graph has collapsed into large label groups.
// The engine uses it as the cheap prelabeling stage of the EPP ensemble
// pipeline (core.EngineEnsemble): one label contraction after PLP shrinks the
// graph before the expensive matching agglomeration runs.
//
// # Determinism and consistency
//
// The sweeps are synchronous (Jacobi-style) and two-phase, which is what
// makes the kernel deterministic at every thread count:
//
//   - Phase A (compute) reads the stable labels array and writes each active
//     vertex's proposed label into a separate pending array. No label is
//     written while any label is read — the phases are barrier-separated —
//     so label access needs no atomics and the result depends only on the
//     label state, never on worker interleaving.
//   - Phase B (commit) applies pending labels (each vertex appears once on
//     the worklist, so the store is unshared) and scatters next-sweep
//     activation marks to the changed vertex and its neighbors. The mark
//     scatter is the one concurrently written surface: several committers
//     may mark a shared neighbor at once, so a mark is an atomic load and,
//     only when it reads 0, an atomic store of 1. Marks only go 0→1, so
//     skipping the store of an already-set mark, or two committers both
//     storing it, is the same outcome in any order, and most neighbors of
//     a changed vertex are already marked. The per-sweep changed counter
//     aggregates per-range partials with one atomic add per range — a
//     commutative sum, so it too is schedule-independent.
//
// Ties on the dominant weight break toward the smaller label, and a vertex
// may ascend to a larger label only on even sweeps ("descend-only on odd
// sweeps"). Synchronous label propagation can otherwise enter period-2
// oscillations — two vertices that keep swapping labels — and the
// asymmetric rule breaks every such cycle while leaving fixpoints fixed.
// The rule is enforced at commit time: a vertex whose ascent an odd sweep
// blocks keeps its label but stays on the worklist, so it retries on the
// next (even) sweep instead of silently freezing below its dominant label.
//
// The per-sweep worklist holds only vertices whose neighborhood changed in
// the previous sweep, packed in index order by the deterministic prefix-sum
// scatter, and each sweep is scheduled degree-balanced over the worklist via
// par.Partition (the same discipline as the matching kernel). Dominant-label
// selection uses per-range dense stripes of the label histogram — the
// striped-histogram pattern from internal/par, with the stripe restored to
// zero after each vertex so one clear per run suffices.
package plp

import (
	"sync/atomic"

	"repro/internal/buf"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
)

// DefaultMaxSweeps bounds a run when Options.MaxSweeps is 0. Label
// propagation converges to a fixpoint in a handful of sweeps on social
// graphs; the bound also stops pathological slow drains.
const DefaultMaxSweeps = 32

// Options configures a propagation run.
type Options struct {
	// MaxSweeps bounds the number of sweeps; 0 selects DefaultMaxSweeps.
	MaxSweeps int
	// Threshold stops the run once the active-vertex fraction drops to or
	// below it: a sweep runs only while len(worklist) > Threshold·n. 0 (the
	// default) runs to an exact fixpoint (or MaxSweeps). Staudt & Meyerhenke
	// stop PLP early because the last sweeps move almost nothing while still
	// costing a pass; a prelabeling does not need the exact fixpoint.
	Threshold float64
}

// Result of a propagation run.
type Result struct {
	// Labels[v] is v's community label: a vertex id in [0, n), not
	// necessarily dense (contract.ByLabels densifies during contraction).
	// With a caller-provided Scratch, the Result and Labels live in scratch
	// storage and are valid only until the scratch's next use.
	Labels []int64
	// Sweeps is the number of executed sweeps.
	Sweeps int
	// Active[i] is the worklist length at the start of sweep i — the drain
	// curve. Changed[i] is the number of vertices that adopted a new label
	// in sweep i. Both alias scratch storage when a Scratch is provided.
	Active  []int64
	Changed []int64
}

// Scratch holds the kernel's reusable state: the symmetrized CSR view, the
// label/pending arrays, the activation marks and worklist double-buffer, the
// striped label histogram, and the per-sweep partition workspace. A zero
// Scratch is ready; buffers grow to the largest graph seen. A Scratch must
// not be shared by concurrent propagations.
type Scratch struct {
	csr     graph.CSR
	labels  []int64
	pending []int64
	marks   []int64 // next-sweep activation flags, also the initial keep flags
	slots   []int64
	list    []int64 // worklist double-buffer, ping
	list2   []int64 // worklist double-buffer, pong
	// spa is the striped dense label histogram: workers consecutive n-wide
	// stripes. Each compute range accumulates its vertices' neighborhoods
	// into its own stripe and restores the touched entries to zero before
	// moving on, so the whole array is cleared once per run, not per sweep.
	spa []int64
	// part is the per-sweep degree-balanced schedule over the worklist:
	// item i weighs deg(list[i])+1 (vertex-aligned — per-vertex histogram
	// state must not split across workers).
	part    par.Partition
	active  []int64
	changed []int64
	res     Result
}

// orNew returns s, or a fresh Scratch when s is nil, keeping the kernel's
// scratch in a single-assignment variable (closure-capture rule; see the
// matching kernel).
func (s *Scratch) orNew() *Scratch {
	if s != nil {
		return s
	}
	return &Scratch{}
}

// Propagate runs label propagation on g with fresh state. The input graph is
// read-only.
func Propagate(ec *exec.Ctx, g *graph.Graph, opt Options) *Result {
	return PropagateWith(ec, g, opt, nil)
}

// PropagateWith is Propagate running out of s's reusable buffers; a nil s
// behaves exactly like Propagate. When ec carries a recorder the kernel
// records one span per sweep (active in, changed out); a nil recorder costs
// predictable branches only. When ec's context is cancelled the sweep loop
// exits early: the labels reached so far are a valid (just less converged)
// prelabeling.
func PropagateWith(ec *exec.Ctx, g *graph.Graph, opt Options, scratch *Scratch) *Result {
	rec := ec.Recorder()
	n := int(g.NumVertices())
	maxSweeps := opt.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = DefaultMaxSweeps
	}
	s := scratch.orNew()
	res := &s.res
	*res = Result{}
	if n == 0 {
		res.Labels = s.labels[:0]
		return res
	}

	// PLP needs whole neighborhoods; the bucketed graph stores each
	// edge once, so symmetrize into the scratch CSR. Its row order is the
	// same at every thread count, and every consumer below is
	// order-independent anyway: weight sums commute exactly in int64 and
	// the min-label tie-break is a total order.
	c := graph.ToCSRInto(ec.Threads(), g, &s.csr)

	workers := ec.Workers(n)
	s.labels = buf.Grow(s.labels, n)
	s.pending = buf.Grow(s.pending, n)
	s.marks = buf.Grow(s.marks, n)
	s.slots = buf.Grow(s.slots, n)
	s.list = buf.Grow(s.list, n)
	s.list2 = buf.Grow(s.list2, n)
	s.spa = buf.Grow(s.spa, workers*n)
	labels, marks := s.labels, s.marks
	spa := s.spa[:workers*n]
	ec.ZeroInt64(spa) // per-vertex discipline restores entries; one clear per run

	// Identity labels; the initial worklist is every vertex with a neighbor
	// (isolated vertices keep their own label forever and never activate).
	if ec.Serial(n) {
		for v := 0; v < n; v++ {
			labels[v] = int64(v)
			if c.Degree(int64(v)) > 0 {
				marks[v] = 1
			} else {
				marks[v] = 0
			}
		}
	} else {
		ec.For(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				labels[v] = int64(v)
				if c.Degree(int64(v)) > 0 {
					marks[v] = 1
				} else {
					marks[v] = 0
				}
			}
		})
	}
	list := ec.PackIndexInto(n, marks, s.slots, s.list)
	ec.ZeroInt64(marks)

	s.active, s.changed = s.active[:0], s.changed[:0]
	dbuf := s.list2
	sweep := 0
	for sweep < maxSweeps && float64(len(list)) > opt.Threshold*float64(n) {
		if ec.Err() != nil {
			break // cancelled: current labels are a valid prelabeling
		}
		s.active = append(s.active, int64(len(list)))
		lst := list // single-assignment alias for closure capture
		sp := rec.Begin(obs.KernelPLPSweep)

		// Phase A: compute. Plain-function bodies keep the serial path
		// closure-free; the parallel path hands each range a private
		// histogram stripe claimed off an atomic cursor (ranges ≤ workers,
		// and stripe identity cannot affect the outcome — stripes are
		// scratch restored to zero vertex by vertex).
		serial := ec.Serial(len(lst))
		if serial {
			computeRange(c, labels, s.pending, spa[:n], lst, 0, len(lst))
		} else {
			rowStart, rowEnd := c.RowBounds()
			ec.BuildIndexed(&s.part, lst, rowStart, rowEnd)
			var cursor int64
			nn := n
			ec.ForRanges("plp/compute", &s.part, func(lo, hi int) {
				j := int(atomic.AddInt64(&cursor, 1)) - 1
				computeRange(c, labels, s.pending, spa[j*nn:(j+1)*nn], lst, lo, hi)
			})
		}

		// Phase B: commit and scatter activation marks (see the package
		// comment for the consistency argument).
		var changed int64
		if serial {
			changed = commitRange(c, labels, s.pending, marks, sweep, lst, 0, len(lst))
		} else {
			// Declared here so the serial path, whose counters no closure
			// captures, stays allocation-free.
			var sum atomic.Int64
			sw := sweep
			ec.ForRanges("plp/commit", &s.part, func(lo, hi int) {
				sum.Add(commitRange(c, labels, s.pending, marks, sw, lst, lo, hi))
			})
			changed = sum.Load()
		}
		s.changed = append(s.changed, changed)

		// Next worklist: pack the marked vertices (index order — the
		// prefix-sum pack is deterministic) into the other half of the
		// double-buffer, then clear the marks for the next sweep.
		packed := ec.PackIndexInto(n, marks, s.slots, dbuf)
		ec.ZeroInt64(marks)
		dbuf = lst[:0]
		list = packed
		sweep++
		sp.EndArgs("active", int64(len(lst)), "changed", changed)
		// No explicit fixpoint break: when nothing changed and no ascent was
		// blocked, no vertex is marked and the packed worklist is empty, so
		// the loop condition exits; blocked vertices keep the list non-empty
		// for one more (even) sweep.
	}
	s.list, s.list2 = list[:0], dbuf[:0]

	res.Labels = labels
	res.Sweeps = sweep
	res.Active = s.active
	res.Changed = s.changed
	return res
}

// computeRange is phase A over list[lo:hi]: each active vertex accumulates
// its neighborhood's label weights into the range's private histogram stripe
// w, tracks the running dominant label (weights only grow, so the running
// argmax with min-label ties equals the final one), and proposes it. Touched
// stripe entries are restored to zero before the next vertex. The
// descend-only rule is commitRange's, so a blocked proposal survives to the
// next sweep.
func computeRange(c *graph.CSR, labels, pending, w []int64, list []int64, lo, hi int) {
	for i := lo; i < hi; i++ {
		v := list[i]
		cur := labels[v]
		adj, wgt := c.Neighbors(v)
		// Self-loop weight counts toward the current label: internal
		// cohesion resists absorption.
		w[cur] = c.Self[v]
		best, bestW := cur, w[cur]
		for j, u := range adj {
			l := labels[u]
			nw := w[l] + wgt[j]
			w[l] = nw
			if nw > bestW || (nw == bestW && l < best) {
				best, bestW = l, nw
			}
		}
		for _, u := range adj {
			w[labels[u]] = 0
		}
		w[cur] = 0
		pending[v] = best
	}
}

// commitRange is phase B over list[lo:hi]: apply pending labels (each
// worklist vertex is owned by exactly one range, so the label store is
// plain) and mark the changed vertex and its neighbors active for the next
// sweep, storing a mark only when an atomic load finds it unset. On odd
// sweeps an ascent (pending label larger than the current one) is blocked —
// the oscillation breaker — but the vertex re-marks itself so the next,
// even sweep reconsiders the move; without the re-mark a blocked vertex
// would fall off the worklist frozen below its dominant label. Returns the
// number of vertices that changed label.
func commitRange(c *graph.CSR, labels, pending, marks []int64, sweep int, list []int64, lo, hi int) int64 {
	var changed int64
	for i := lo; i < hi; i++ {
		v := list[i]
		nl := pending[v]
		if nl == labels[v] {
			continue
		}
		if sweep%2 == 1 && nl > labels[v] {
			mark(marks, v)
			continue
		}
		labels[v] = nl
		changed++
		mark(marks, v)
		adj, _ := c.Neighbors(v)
		for _, u := range adj {
			mark(marks, u)
		}
	}
	return changed
}

// mark sets marks[v] to 1. The load comes first because most marks are
// already set by then: on amd64 an atomic load is a plain move, while an
// atomic store is a locked exchange.
func mark(marks []int64, v int64) {
	if atomic.LoadInt64(&marks[v]) == 0 {
		atomic.StoreInt64(&marks[v], 1)
	}
}
