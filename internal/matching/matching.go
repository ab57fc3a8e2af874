// Package matching implements step 2 of the agglomerative loop (§III,
// §IV-B): a greedy approximately-maximum-weight maximal matching over the
// positively scored community-graph edges. Matched pairs merge in the
// contraction step; the greedy construction guarantees the matching weight
// is within a factor of two of the maximum (Preis; Hoepman;
// Manne–Bisseling).
//
// Two kernels are provided:
//
//   - Worklist: the paper's improved algorithm. At entry one count/scatter
//     over the level's buckets builds a symmetric row store holding only the
//     positive-score edges, each row entry an inline (neighbor, score) pair.
//     An explicit array of currently unmatched vertices is then swept in
//     parallel: each vertex keeps its candidate — its best unmatched
//     neighbor under the total edge order — while that neighbor stays
//     unmatched, and otherwise rescans its row. The rescan is branch-free
//     where the predictor cannot help: one loop drops the neighbors whose
//     one-byte taken flag is set with a stable filter and takes the
//     survivors' maximum score, and a second picks the best of the entries
//     carrying it.
//     A vertex claims its candidate exactly when the candidate names it
//     back, and sets its own taken flag. Every vertex writes only its own
//     candidate, row, taken and match entries, and the pass barriers order
//     every cross-vertex read, so the kernel takes no locks and issues no
//     atomics. Vertices whose candidate was taken by someone else stay on
//     the list and rescan — the pruning Sahu's Louvain work applies to its
//     vertex-following sweeps.
//
//   - EdgeSweep: the 2011 algorithm kept as an ablation baseline. Every
//     sweep runs over the whole edge array and funnels the per-vertex best
//     through a CAS spinlock per endpoint — the "frequent hot spots" that
//     were tolerable with the Cray XMT's full/empty bits but crippled the
//     OpenMP port.
//
// Both kernels compute the locally-dominant matching under one strict total
// order on edges, which is unique and equals the sorted greedy matching: the
// result is the same for every thread count and schedule, even though the
// passes race through it in different interleavings.
package matching

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/buf"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/par"
)

// Unmatched marks a vertex without a partner in Result.Match.
const Unmatched = int64(-1)

// Result describes one matching.
type Result struct {
	// Match[v] is v's partner, or Unmatched. Symmetric:
	// Match[Match[v]] == v for every matched v.
	Match []int64
	// Pairs is the number of matched pairs.
	Pairs int64
	// Weight is the total score of the matched edges.
	Weight float64
	// Passes is the number of parallel sweeps the kernel ran.
	Passes int
	// Drain is the active-vertex count at the start of each pass — the
	// worklist drain curve the convergence ledger records (the edge sweep
	// has no worklist, so it reports the full vertex count per pass). Like
	// Match it aliases scratch storage when a Scratch was supplied, valid
	// only until the scratch's next use.
	Drain []int64
}

// edgeKey orders candidate edges: first by score, then by a hash of the
// stored endpoints, then by the endpoints themselves, making the order
// total (§IV-B "first score and then the vertex indices"). Breaking score
// ties by raw index builds long dependency chains along the vertex
// numbering — each chain element defers to the next, one pass each — so the
// hash shatters ties into random tournaments and keeps the pass count
// logarithmic.
type edgeKey struct {
	score         float64
	tie           uint64
	first, second int64
}

func makeKey(score float64, first, second int64) edgeKey {
	h := uint64(first)<<32 ^ uint64(second)
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return edgeKey{score, h, first, second}
}

func (k edgeKey) less(o edgeKey) bool {
	if k.score != o.score {
		return k.score < o.score
	}
	if k.tie != o.tie {
		return k.tie < o.tie
	}
	if k.first != o.first {
		return k.first < o.first
	}
	return k.second < o.second
}

// rowEntry is one row-store entry: a positive-score neighbor and the score
// of the edge to it, inline so a rescan touches one cache line per four
// entries and never chases an edge id back into the edge arrays.
type rowEntry struct {
	nbr   int64
	score float64
}

// Scratch holds the matching kernels' per-run state for reuse across engine
// phases. A zero Scratch is ready to use; every buffer grows to the largest
// graph seen and is resliced for anything smaller — after the first phase
// the steady-state loop allocates nothing here.
//
// A Scratch must not be shared by concurrent matchings. When a kernel runs
// with a Scratch, the returned Result.Match aliases scratch storage and is
// only valid until the next use of the same Scratch.
type Scratch struct {
	// Shared by both kernels: the match array and each vertex's candidate
	// (the worklist's best unmatched neighbor; the edge sweep's best edge
	// id) plus the score of the edge a matched vertex took, which
	// finishResult sums.
	match     []int64
	cand      []int64
	candScore []float64

	// Worklist state: taken[x] is 1 once x is matched (the claim phase sets
	// its own vertex's flag; propose reads it across the pass barrier, one
	// byte per vertex where match costs eight), the positive-edge row store
	// (row x is rows[rowStart[x]:rowEnd[x]], shrinking as each rescan
	// filters out taken neighbors), the per-span count/cursor stripes that
	// build it, and the worklist double-buffers with their pack workspace.
	taken    []uint8
	rowStart []int64
	rowEnd   []int64
	rows     []rowEntry
	stripes  []int64
	list     []int64 // worklist double-buffer, ping
	list2    []int64 // worklist double-buffer, pong
	keep     []int64
	slots    []int64
	// part is the row build's span schedule when the engine installed none,
	// then the per-pass degree-balanced schedule over the worklist: item i
	// weighs len(row(list[i]))+1, so a pass hands every worker an equal
	// share of row scanning instead of an equal share of vertices. Pass
	// ranges are vertex-aligned — a vertex's candidate and row belong to
	// one worker.
	part par.Partition
	// drain accumulates the per-pass active counts (one append per pass,
	// reused across runs, so the steady state stays off the heap).
	drain []int64

	// Edge-sweep-only state, grown only by EdgeSweepWith: the per-vertex
	// best key and its pass stamp, and the per-vertex spinlocks guarding
	// them.
	candKey  []edgeKey
	candPass []int64
	locks    *par.SpinLocks
}

// ReleaseRows drops the positive-edge row store, the one buffer sized by
// edges rather than vertices, so that a Scratch kept between detection runs
// retains only vertex-sized matching state. The engine calls it when a run
// ends; the next WorklistWith reallocates the store at its first (largest)
// level and reuses it for every smaller level after.
func (s *Scratch) ReleaseRows() { s.rows = nil }

// orNew returns s, or a fresh Scratch when s is nil, letting the kernels
// bind their scratch to a single-assignment variable (see WorklistWith).
func (s *Scratch) orNew() *Scratch {
	if s != nil {
		return s
	}
	return &Scratch{}
}

// Worklist computes a greedy heavy maximal matching with the paper's
// unmatched-vertex-list algorithm using p workers. Only edges with a
// strictly positive score participate. It allocates fresh state; the engine
// calls WorklistWith to reuse buffers across phases.
//
// Each pass parallelizes over the array of still-active vertices in two
// barrier-separated phases. Propose: an active vertex u keeps cand[u] while
// that neighbor is still unmatched — its row only loses entries, so the
// maximum survives — and otherwise rescans its row for the maximum under
// the total order (score, stored endpoints), filtering matched neighbors
// out so each entry is dropped at most once. Claim: u takes cand[u]
// = o exactly when cand[o] == u; "if edge {i, j} dominates the scores
// adjacent to i and j, that edge will be found by one of the two vertices"
// (§IV-B), and here by both, each writing its own match entry. This is the
// locally-dominant discipline of Hoepman and Manne–Bisseling, which
// guarantees weight within 2× of the maximum. Vertices whose candidate was
// taken stay on the list; vertices whose rows empty drop off, and the
// matching is maximal when the list drains.
func Worklist(ec *exec.Ctx, g *graph.Graph, scores []float64) Result {
	return WorklistWith(ec, g, scores, nil)
}

// WorklistWith is Worklist running out of s's reusable buffers; a nil s
// behaves exactly like Worklist. When ec carries a recorder it records one
// span for the row build and one per pass (worklist length in, requeued
// count out) and the rounds/visits/claim counters; a nil recorder costs a
// handful of predictable branches per pass — nothing per vertex or edge.
// When ec's context is cancelled the pass loop exits early: the partial
// matching is symmetric and claim-consistent, just not maximal.
func WorklistWith(ec *exec.Ctx, g *graph.Graph, scores []float64, scratch *Scratch) Result {
	rec := ec.Recorder()
	n := int(g.NumVertices())
	// s is assigned exactly once: a variable with any assignment after its
	// declaration is captured by reference when a closure mentions it, i.e.
	// heap-boxed at declaration, which the zero-allocation steady state
	// cannot afford (same for lst below).
	s := scratch.orNew()

	// Row store plus the initial worklist: every vertex with at least one
	// positive edge, packed with the parallel prefix-sum-and-scatter.
	rsp := rec.Begin(obs.KernelMatchRows)
	buildRows(ec, g, scores, s, n)
	keepFlags := s.keep
	list := ec.PackIndexInto(n, keepFlags, s.slots, s.list)
	rsp.EndArgs("entries", s.rowStart[n], "active", int64(len(list)))

	buf := s.list2
	hot := rec.Hot() // nil when disabled; claim chunks flush into it
	s.drain = s.drain[:0]
	passes := 0
	for len(list) > 0 {
		if ec.Err() != nil {
			break // cancelled: the matching so far is symmetric, stop refining it
		}
		s.drain = append(s.drain, int64(len(list)))
		lst := list // single-assignment alias for closure capture
		sp := rec.Begin(obs.KernelMatchPass)
		// Propose: refresh every active vertex's candidate. The pass bodies
		// live in plain functions so the serial path evaluates no closure
		// literal (a literal handed to ForRanges escapes and heap-allocates
		// even when the loop then runs on one worker).
		serial := ec.Serial(len(lst))
		if serial {
			worklistPropose(s, lst, 0, len(lst))
		} else {
			// One degree-balanced schedule serves both phases of the pass,
			// so a worker revisits in the claim the vertices it proposed for
			// with their candidate entries still warm.
			ec.BuildIndexed(&s.part, lst, s.rowStart, s.rowEnd)
			ec.ForRanges("match/propose", &s.part, func(lo, hi int) {
				worklistPropose(s, lst, lo, hi)
			})
		}
		// Claim mutual candidates; compact the worklist. The keep flags live
		// in reused scratch, so every entry is written (0 on the drop paths)
		// rather than relying on a fresh zeroed allocation.
		keep := keepFlags[:len(lst)]
		if serial {
			worklistClaim(s, lst, keep, hot, 0, len(lst))
		} else {
			ec.ForRanges("match/claim", &s.part, func(lo, hi int) {
				worklistClaim(s, lst, keep, hot, lo, hi)
			})
		}
		// Compact into the other half of the double-buffer and swap, so the
		// drained list's storage backs the next pass's output.
		packed := exec.PackInto(ec, lst, keep, s.slots, buf)
		buf = lst[:0]
		list = packed
		passes++
		sp.EndArgs("active", int64(len(lst)), "requeued", int64(len(packed)))
		rec.Add(obs.CtrMatchActive, int64(len(lst)))
		rec.Add(obs.CtrMatchRequeued, int64(len(packed)))
	}
	s.list, s.list2 = list[:0], buf[:0]
	rec.Add(obs.CtrMatchRounds, int64(passes))
	rec.FoldHot()
	res := finishResult(ec, s, n, passes)
	res.Drain = s.drain
	return res
}

// buildRows fills s's row store from g's positive-score edges and resets
// the per-vertex state: match and cand to Unmatched, taken to 0, rowEnd to
// the row's end, and keep[x] to whether x has any positive edge. Parallel
// builds count into one n-wide stripe per edge-exact span (the engine's
// installed level partition when it matches g, a locally built one
// otherwise), turn the stripes into private per-(span, row) absolute
// cursors with StripeOffsets and StripeCursors, and replay the identical
// spans to scatter — the contract.ByMapping discipline (DESIGN.md §7):
// plain stores, no atomics, and hub rows split across spans without
// contention. The serial build's one span scatters through rowEnd, seeded
// from rowStart.
func buildRows(ec *exec.Ctx, g *graph.Graph, scores []float64, s *Scratch, n int) {
	s.match = buf.Grow(s.match, n)
	s.cand = buf.Grow(s.cand, n)
	s.candScore = buf.Grow(s.candScore, n)
	s.taken = buf.Grow(s.taken, n)
	s.rowEnd = buf.Grow(s.rowEnd, n)
	s.keep = buf.Grow(s.keep, n)
	s.slots = buf.Grow(s.slots, n)
	s.rowStart = buf.Grow(s.rowStart, n+1)
	rowStart := s.rowStart
	if n == 0 {
		rowStart[0] = 0
		return
	}
	if ec.Serial(n) {
		// One span: count straight into rowStart, and scatter with rowEnd
		// as the cursors, starting at each row's first slot.
		clear(rowStart)
		rowCountRange(g, scores, rowStart, 0, n, g.Start[0], g.End[n-1])
		total := ec.ExclusiveSumInt64(rowStart)
		s.rows = buf.Grow(s.rows, int(total))
		copy(s.rowEnd, rowStart[:n])
		rowScatterRange(g, scores, s.rows, s.rowEnd, 0, n, g.Start[0], g.End[n-1])
		rowReset(s, 0, n)
		return
	}
	pt := ec.Balanced(n, g.NumEdges())
	if pt == nil {
		ec.BuildBuckets(&s.part, n, g.Start, g.End)
		pt = &s.part
	}
	spans := pt.Workers()
	s.stripes = buf.Grow(s.stripes, spans*n)
	stripes := s.stripes
	ec.ZeroInt64(stripes)
	ec.ForSpans("match/rows-count", pt, func(j int, sp par.Span) {
		rowCountRange(g, scores, stripes[j*n:(j+1)*n], sp.LoV, sp.HiV, sp.LoE, sp.HiE)
	})
	ec.StripeOffsets(stripes, spans, n, rowStart)
	rowStart[n] = 0
	total := ec.ExclusiveSumInt64(rowStart)
	ec.StripeCursors(stripes, spans, n, rowStart)
	s.rows = buf.Grow(s.rows, int(total))
	rows := s.rows
	ec.ForSpans("match/rows-scatter", pt, func(j int, sp par.Span) {
		rowScatterRange(g, scores, rows, stripes[j*n:(j+1)*n], sp.LoV, sp.HiV, sp.LoE, sp.HiE)
	})
	ec.For(n, func(lo, hi int) {
		rowReset(s, lo, hi)
	})
}

// rowCountRange counts the positive edges of buckets [lo, hi) into cnt, once
// per endpoint. The first bucket is entered at edge eloFirst and the last
// left at ehiLast (a span's clamps; whole buckets otherwise). Every edge in
// x's bucket belongs to x, so x's own count is kept in a register and added
// once per bucket.
func rowCountRange(g *graph.Graph, scores []float64, cnt []int64, lo, hi int, eloFirst, ehiLast int64) {
	for x := lo; x < hi; x++ {
		elo, ehi := g.Start[x], g.End[x]
		if x == lo {
			elo = eloFirst
		}
		if x == hi-1 {
			ehi = ehiLast
		}
		var own int64
		for e := elo; e < ehi; e++ {
			if scores[e] > 0 {
				own++
				cnt[g.V[e]]++
			}
		}
		cnt[x] += own
	}
}

// rowScatterRange replays rowCountRange's edge range, writing each positive
// edge into both endpoints' rows at the span's absolute cursors cur[u] and
// cur[v], which then advance. The bucket owner's cursor cur[x] stays in a
// register for the bucket, so consecutive writes to row x do not wait on
// a store to reload it.
func rowScatterRange(g *graph.Graph, scores []float64, rows []rowEntry, cur []int64, lo, hi int, eloFirst, ehiLast int64) {
	for x := lo; x < hi; x++ {
		elo, ehi := g.Start[x], g.End[x]
		if x == lo {
			elo = eloFirst
		}
		if x == hi-1 {
			ehi = ehiLast
		}
		u, cu := int64(x), cur[x]
		for e := elo; e < ehi; e++ {
			sc := scores[e]
			if sc <= 0 {
				continue
			}
			v := g.V[e]
			rows[cu] = rowEntry{v, sc}
			cu++
			rows[cur[v]] = rowEntry{u, sc}
			cur[v]++
		}
		cur[x] = cu
	}
}

// rowReset resets vertices [lo, hi) for a new matching, turning rowEnd from
// scatter cursor (serial build) or stale state into each row's end.
func rowReset(s *Scratch, lo, hi int) {
	match, cand, taken, rowStart, rowEnd, keep := s.match, s.cand, s.taken, s.rowStart, s.rowEnd, s.keep
	for x := lo; x < hi; x++ {
		match[x] = Unmatched
		cand[x] = Unmatched
		taken[x] = 0
		end := rowStart[x+1]
		rowEnd[x] = end
		if end > rowStart[x] {
			keep[x] = 1
		} else {
			keep[x] = 0
		}
	}
}

// worklistPropose is the propose phase of one worklist pass over
// list[lo:hi]: each active vertex keeps its candidate while the candidate is
// untaken, and otherwise rescans its row for the best untaken neighbor. The
// rescan compacts the row with a stable filter whose store is unconditional
// and whose advance is the neighbor's free bit, and in the same loop takes
// the maximum survivor score as an integer max over masked score bits, so
// neither a matched neighbor nor a new running maximum costs a branch the
// predictor must guess. A second loop over the survivors picks the best of
// the entries carrying that score; the best entry is unique under the total
// order, so row order does not matter. It writes only the listed vertices'
// own cand, candScore, row and rowEnd entries and reads taken, which only
// the claim phase (across a barrier) writes.
func worklistPropose(s *Scratch, list []int64, lo, hi int) {
	cand, candScore, taken := s.cand, s.candScore, s.taken
	rowStart, rowEnd, rows := s.rowStart, s.rowEnd, s.rows
	for i := lo; i < hi; i++ {
		u := list[i]
		if c := cand[u]; c != Unmatched && taken[c] == 0 {
			continue // the best neighbor is still free, so still the best
		}
		row := rows[rowStart[u]:rowEnd[u]]
		w := 0
		var bestBits uint64
		for _, e := range row {
			row[w] = e
			free := uint64(taken[e.nbr] ^ 1)
			w += int(free)
			// Row scores are strictly positive, so their bit patterns order
			// like the scores; a taken neighbor's masks to zero.
			bestBits = max(bestBits, math.Float64bits(e.score)&-free)
		}
		row = row[:w]
		best, bestScore := Unmatched, math.Float64frombits(bestBits)
		for _, e := range row {
			if e.score == bestScore && (best == Unmatched || tieBelow(u, best, e.nbr)) {
				best = e.nbr
			}
		}
		rowEnd[u] = rowStart[u] + int64(w)
		cand[u] = best
		candScore[u] = bestScore
	}
}

// tieBelow reports whether edge {u, a} ranks below edge {u, b} in the total
// order when both carry the same score. The hash is only computed on score
// ties, so a rescan costs one float compare per entry.
func tieBelow(u, a, b int64) bool {
	a1, a2 := graph.StoredOrder(u, a)
	b1, b2 := graph.StoredOrder(u, b)
	return makeKey(0, a1, a2).less(makeKey(0, b1, b2))
}

// worklistClaim is the claim phase of one worklist pass over list[lo:hi]:
// u takes its candidate o when o's candidate is u, writing only match[u]
// and taken[u] (o is on the list too and writes its own), and sets the keep
// flag for vertices whose candidate was taken by someone else. A vertex
// whose row drained (no candidate) drops for good. Claims are counted once per
// pair into a chunk-local and flushed once into hot (nil when
// observability is off) — never a per-vertex atomic.
func worklistClaim(s *Scratch, list, keep []int64, hot *obs.Hot, lo, hi int) {
	match, cand, taken := s.match, s.cand, s.taken
	var claims int64
	for i := lo; i < hi; i++ {
		u := list[i]
		o := cand[u]
		switch {
		case o == Unmatched:
			keep[i] = 0
		case cand[o] == u:
			match[u] = o
			taken[u] = 1
			if u < o {
				claims++
			}
			keep[i] = 0
		default:
			keep[i] = 1
		}
	}
	hot.Add(obs.CtrMatchClaims, claims)
}

// EdgeSweep computes the matching with the 2011 whole-edge-array algorithm
// using p workers: every sweep updates a per-vertex best edge through a
// vertex lock (the full/empty-bit hot spot), then matches mutually best
// edges. Kept as the ablation baseline for the paper's claim that the
// worklist algorithm's gains are "marginal on the Cray XMT but drastic on
// Intel-based platforms".
func EdgeSweep(ec *exec.Ctx, g *graph.Graph, scores []float64) Result {
	return EdgeSweepWith(ec, g, scores, nil)
}

// EdgeSweepWith is EdgeSweep running out of s's reusable buffers; a nil s
// behaves exactly like EdgeSweep. The candidate array doubles as the
// per-vertex best-edge table. Observability mirrors WorklistWith: one span
// per whole-edge-array pass plus the rounds and claim/conflict counters (the
// edge sweep has no worklist, so every pass reports the full vertex count as
// its active size), and a cancelled context exits the pass loop early with a
// symmetric partial matching.
func EdgeSweepWith(ec *exec.Ctx, g *graph.Graph, scores []float64, scratch *Scratch) Result {
	rec := ec.Recorder()
	n := int(g.NumVertices())
	s := scratch.orNew()
	s.growEdgeSweep(ec, n)

	hot := rec.Hot()
	s.drain = s.drain[:0]
	passes := 0
	for {
		if ec.Err() != nil {
			break
		}
		pass := int64(passes)
		eligible := false
		sp := rec.Begin(obs.KernelMatchPass)
		// Sweep 1: per-endpoint best via locks (the hot spot). As in the
		// worklist kernel, the sweep bodies are plain functions so the
		// serial path evaluates no escaping closure literal.
		if ec.Serial(n) {
			eligible = edgeSweepBest(g, scores, s, pass, 0, n)
		} else {
			var flag int64
			ec.ForDynamic(n, 0, func(lo, hi int) {
				if edgeSweepBest(g, scores, s, pass, lo, hi) {
					atomic.StoreInt64(&flag, 1)
				}
			})
			eligible = flag != 0
		}
		if !eligible {
			// The ineligible sweep matched nothing: it is no pass.
			sp.NoSample().End()
			break
		}
		// Sweep 2: match mutually best edges.
		if ec.Serial(n) {
			edgeSweepClaim(g, scores, s, pass, hot, 0, n)
		} else {
			ec.ForDynamic(n, 0, func(lo, hi int) {
				edgeSweepClaim(g, scores, s, pass, hot, lo, hi)
			})
		}
		passes++
		s.drain = append(s.drain, int64(n))
		sp.EndArgs("active", int64(n), "pass", pass)
		rec.Add(obs.CtrMatchActive, int64(n))
	}
	rec.Add(obs.CtrMatchRounds, int64(passes))
	rec.FoldHot()
	res := finishResult(ec, s, n, passes)
	res.Drain = s.drain
	return res
}

// growEdgeSweep resizes the edge sweep's buffers for an n-vertex graph and
// resets match to Unmatched and the pass stamps to -1 (stamps restart at 0
// every run); locks are reused as-is — every lock is free between runs.
func (s *Scratch) growEdgeSweep(ec *exec.Ctx, n int) {
	s.match = buf.Grow(s.match, n)
	s.cand = buf.Grow(s.cand, n)
	s.candScore = buf.Grow(s.candScore, n)
	s.candPass = buf.Grow(s.candPass, n)
	s.candKey = buf.Grow(s.candKey, n)
	if s.locks == nil || s.locks.Len() < n {
		s.locks = par.NewSpinLocks(n)
	}
	if ec.Serial(n) {
		resetEdgeSweep(s, 0, n)
		return
	}
	ec.For(n, func(lo, hi int) {
		resetEdgeSweep(s, lo, hi)
	})
}

func resetEdgeSweep(s *Scratch, lo, hi int) {
	for i := lo; i < hi; i++ {
		s.match[i] = Unmatched
		s.candPass[i] = -1
	}
}

// edgeSweepBest is sweep 1 of one edge-sweep pass over buckets [lo, hi): it
// funnels each available positive edge through both endpoints' locked best
// slots and reports whether any eligible edge was seen.
func edgeSweepBest(g *graph.Graph, scores []float64, s *Scratch, pass int64, lo, hi int) bool {
	match, locks := s.match, s.locks
	bestEdge, bestKey, bestPass := s.cand, s.candKey, s.candPass
	local := false
	for x := int64(lo); x < int64(hi); x++ {
		for e := g.Start[x]; e < g.End[x]; e++ {
			sc := scores[e]
			if sc <= 0 {
				continue
			}
			u, v := x, g.V[e]
			if atomic.LoadInt64(&match[u]) != Unmatched ||
				atomic.LoadInt64(&match[v]) != Unmatched {
				continue
			}
			local = true
			k := makeKey(sc, u, v)
			for _, side := range [2]int64{u, v} {
				locks.Lock(side)
				if bestPass[side] != pass || bestKey[side].less(k) {
					bestPass[side] = pass
					bestKey[side] = k
					bestEdge[side] = e
				}
				locks.Unlock(side)
			}
		}
	}
	return local
}

// edgeSweepClaim is sweep 2 of one edge-sweep pass over buckets [lo, hi):
// match mutually best edges. Claim outcomes flush once per chunk into hot
// (nil when observability is off).
func edgeSweepClaim(g *graph.Graph, scores []float64, s *Scratch, pass int64, hot *obs.Hot, lo, hi int) {
	match, locks := s.match, s.locks
	bestEdge, bestPass, matchScore := s.cand, s.candPass, s.candScore
	var claims, conflicts int64
	for x := int64(lo); x < int64(hi); x++ {
		for e := g.Start[x]; e < g.End[x]; e++ {
			if scores[e] <= 0 {
				continue
			}
			u, v := x, g.V[e]
			if bestPass[u] != pass || bestPass[v] != pass {
				continue
			}
			if bestEdge[u] != e || bestEdge[v] != e {
				continue
			}
			locks.Lock2(u, v)
			if match[u] == Unmatched && match[v] == Unmatched {
				matchScore[u], matchScore[v] = scores[e], scores[e]
				atomic.StoreInt64(&match[u], v)
				atomic.StoreInt64(&match[v], u)
				claims++
			} else {
				conflicts++
			}
			locks.Unlock2(u, v)
		}
	}
	hot.Add(obs.CtrMatchClaims, claims)
	hot.Add(obs.CtrMatchConflicts, conflicts)
}

// finishResult counts pairs and sums matched-edge scores in O(n) from the
// per-vertex state: each matched pair is tallied at its smaller endpoint,
// whose candScore holds the score of the edge it took.
func finishResult(ec *exec.Ctx, s *Scratch, n, passes int) Result {
	match := s.match[:n]
	if ec.Serial(n) {
		pairs, weight := tallyPairs(s, 0, n)
		return Result{Match: match, Pairs: pairs, Weight: weight, Passes: passes}
	}
	// Declared after the serial return: the closure takes their addresses,
	// which would heap-box them on the serial path too.
	var pairs int64
	var weightBits uint64
	ec.ForDynamic(n, 0, func(lo, hi int) {
		localPairs, localWeight := tallyPairs(s, lo, hi)
		atomic.AddInt64(&pairs, localPairs)
		addFloatAtomic(&weightBits, localWeight)
	})
	return Result{Match: match, Pairs: pairs, Weight: floatFromBits(weightBits), Passes: passes}
}

func tallyPairs(s *Scratch, lo, hi int) (pairs int64, weight float64) {
	match, candScore := s.match, s.candScore
	for x := lo; x < hi; x++ {
		if m := match[x]; m != Unmatched && int64(x) < m {
			pairs++
			weight += candScore[x]
		}
	}
	return pairs, weight
}

// Verify checks that match is a valid maximal matching of the positively
// scored edges of g: symmetry, partner validity, adjacency of matched
// pairs via a positive edge, and maximality (no positive edge joins two
// unmatched vertices). Intended for tests and debugging.
func Verify(g *graph.Graph, scores []float64, match []int64) error {
	n := g.NumVertices()
	if int64(len(match)) != n {
		return fmt.Errorf("matching: match has %d entries for %d vertices", len(match), n)
	}
	for x := int64(0); x < n; x++ {
		m := match[x]
		if m == Unmatched {
			continue
		}
		if m < 0 || m >= n {
			return fmt.Errorf("matching: match[%d] = %d out of range", x, m)
		}
		if m == x {
			return fmt.Errorf("matching: vertex %d matched to itself", x)
		}
		if match[m] != x {
			return fmt.Errorf("matching: asymmetric pair (%d, %d)", x, m)
		}
	}
	// Matched pairs must share a positive stored edge; maximality over
	// positive edges.
	paired := make(map[[2]int64]bool)
	var violation error
	g.ForEachEdge(func(e int64, u, v, _ int64) {
		if violation != nil {
			return
		}
		if scores[e] > 0 && match[u] == Unmatched && match[v] == Unmatched {
			violation = fmt.Errorf("matching: not maximal, positive edge {%d,%d} unmatched on both sides", u, v)
			return
		}
		if match[u] == v {
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			if scores[e] <= 0 {
				violation = fmt.Errorf("matching: pair (%d,%d) uses non-positive edge score %v", u, v, scores[e])
				return
			}
			paired[[2]int64{a, b}] = true
		}
	})
	if violation != nil {
		return violation
	}
	for x := int64(0); x < n; x++ {
		m := match[x]
		if m == Unmatched || x > m {
			continue
		}
		if !paired[[2]int64{x, m}] {
			return fmt.Errorf("matching: pair (%d,%d) has no positive stored edge", x, m)
		}
	}
	return nil
}
