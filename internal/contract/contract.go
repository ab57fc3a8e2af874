// Package contract implements step 3 of the agglomerative loop (§III,
// §IV-C): collapsing matched community pairs into a new, smaller community
// graph. Contraction takes 40–80% of total execution time, so the paper's
// central engineering contribution is here.
//
// Two kernels are provided:
//
//   - Bucket: the paper's improved algorithm. Edge endpoints are relabeled
//     to the new vertex numbering and re-oriented by the parity hash; edges
//     are counted per destination bucket, placed, and identical edges
//     accumulated in place, shortening the bucket. Bucket offsets are the
//     exclusive prefix sum of the bucket counts, so buckets lie back to back
//     in vertex order. The paper also describes a non-contiguous layout
//     that bump-allocates each bucket with one atomic cursor; it measured
//     0.99× end to end here (EXPERIMENTS.md, §IV-C note) and is not kept.
//
//     Two departures from the paper's kernel. Placement uses per-span
//     histogram stripes instead of a fetch-and-add per edge (see
//     ByMapping). And the paper sorts each bucket by neighbor before
//     accumulating; here a linear merge folds duplicates through a dense
//     k-wide position array instead, so a bucket costs O(len) rather than
//     O(len log len). Survivors keep their first-seen order, which is the
//     old graph's bucket-traversal order: every span writes its own
//     sub-range of each bucket, in span order. Contracted buckets therefore
//     hold distinct neighbors but are not sorted by V, and the output is
//     identical across thread counts and schedulers.
//
//   - ListChase: the 2011 algorithm (a technique due to John T. Feo) kept
//     as an ablation baseline. Relabeled edges are inserted into hash
//     chains — linked lists guarded per slot, full/empty bits on the XMT,
//     locks here — accumulating weights on hit and appending on miss. The
//     paper found a similar OpenMP implementation "infeasible"; the kernel
//     exists to reproduce that comparison.
//
// Bucket, ByMapping and ByLabels take a matching, a dense mapping and sparse
// labels; their scratch, destination and buffer arguments may be nil.
package contract

import (
	"sync/atomic"

	"repro/internal/buf"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/obs"
	"repro/internal/par"
)

// Scratch holds the bucket kernel's reusable working state: the per-bucket
// counts, the per-worker count and self-loop histogram stripes, and the
// edge-balanced partition workspace. A zero Scratch is ready to use;
// buffers grow to the largest graph seen and are reused for every smaller
// one, so the engine's steady-state phases allocate nothing here. A Scratch
// must not be shared by concurrent contractions.
type Scratch struct {
	counts      []int64 // per-new-vertex surviving-edge counts
	cntStripes  []int64 // spans × k edge-count histogram / write cursors, then dedup positions
	selfStripes []int64 // spans × k self-loop weight partials
	flags       []int64 // ByLabels's used-label flags / dense-id prefix sums
	// part is the kernel's own edge-balanced partition workspace. The
	// count/scatter sweeps use it only when the engine has not already
	// installed a matching level partition on the Ctx; the dedup stage
	// rebuilds it over the surviving-bucket lengths either way.
	part par.Partition
}

// orNew returns s, or a fresh Scratch when s is nil, keeping the kernels'
// scratch in a single-assignment variable.
func (s *Scratch) orNew() *Scratch {
	if s != nil {
		return s
	}
	return &Scratch{}
}

// prepDst readies dst as a k-vertex destination graph, allocating a fresh
// one when dst is nil.
func prepDst(dst *graph.Graph, k int64) *graph.Graph {
	if dst == nil {
		return graph.NewEmpty(k)
	}
	dst.ResizeVertices(k)
	return dst
}

// Relabel computes the old→new vertex mapping induced by a matching:
// matched pairs share the new id of their smaller endpoint, unmatched
// vertices keep their own, and new ids are dense in [0, k). It returns the
// mapping and k. The mapping is written into mapBuf when its capacity
// suffices (growing it otherwise); mapBuf may be nil. The results are
// unnamed and the mapping lives in a single-assignment local so no closure
// capture heap-boxes it (see the worklist kernel for the boxing rule).
func Relabel(ec *exec.Ctx, g *graph.Graph, match []int64, mapBuf []int64) ([]int64, int64) {
	n := int(g.NumVertices())
	mapping := buf.Grow(mapBuf, n)
	// mapping temporarily holds a leader flag, then its prefix sum.
	if ec.Serial(n) {
		for x := 0; x < n; x++ {
			m := match[x]
			if m == matching.Unmatched || int64(x) < m {
				mapping[x] = 1
			} else {
				mapping[x] = 0
			}
		}
		k := ec.ExclusiveSumInt64(mapping)
		for x := 0; x < n; x++ {
			if m := match[x]; m != matching.Unmatched && m < int64(x) {
				mapping[x] = mapping[m]
			}
		}
		return mapping, k
	}
	ec.For(n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			m := match[x]
			if m == matching.Unmatched || int64(x) < m {
				mapping[x] = 1
			} else {
				mapping[x] = 0
			}
		}
	})
	k := ec.ExclusiveSumInt64(mapping)
	// Followers copy their leader's dense id. Leaders already hold theirs.
	ec.For(n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			if m := match[x]; m != matching.Unmatched && m < int64(x) {
				mapping[x] = mapping[m]
			}
		}
	})
	return mapping, k
}

// Bucket contracts g according to match using the paper's bucket kernel
// with ec's workers. It returns the new community graph and the old→new
// vertex mapping; g is not modified. s supplies the kernel's scratch
// buffers, dst the destination graph whose arrays are reused in place, and
// mapBuf the storage for the returned mapping. Any of them may be nil for
// fresh allocations.
//
// When ec carries a recorder the kernel records sub-spans for every stage
// (relabel, partition, count, offsets, scatter, dedup), the bucket-occupancy
// histogram, the edges-in/survived/out counters, the dedup stage's merge
// nanoseconds, and per-region worker busy times. A nil recorder adds only
// predictable branches at stage boundaries — nothing per edge.
func Bucket(ec *exec.Ctx, g *graph.Graph, match []int64, s *Scratch, dst *graph.Graph, mapBuf []int64) (*graph.Graph, []int64) {
	rec := ec.Recorder()
	sp := rec.Begin(obs.KernelContractRelabel)
	mapping, k := Relabel(ec, g, match, mapBuf)
	sp.EndArgs("old", g.NumVertices(), "new", k)
	return ByMapping(ec, g, mapping, k, s, dst), mapping
}

// ByLabels contracts g by an arbitrary per-vertex label array: labels[v] is
// any value in [0, n), groups of equal label collapse into one community,
// and the labels need not be dense — ByLabels densifies them first. It
// returns the contracted graph, the dense old→new mapping, and the new
// vertex count k. This is the bridge from label-propagation prelabeling
// (internal/plp) to the bucket contraction kernel: PLP leaves labels
// that are surviving vertex ids, and one densify pass turns them into the
// mapping ByMapping already handles. scratch supplies the reusable buffers
// (including the densify flag array), dst the destination graph, and mapBuf the storage
// for the returned mapping; any may be nil for fresh allocations.
func ByLabels(ec *exec.Ctx, g *graph.Graph, labels []int64, scratch *Scratch, dst *graph.Graph, mapBuf []int64) (*graph.Graph, []int64, int64) {
	rec := ec.Recorder()
	s := scratch.orNew()
	n := int(g.NumVertices())
	sp := rec.Begin(obs.KernelContractDensify)
	// flags[l] = 1 for every used label, then its exclusive prefix sum: the
	// dense id of label l. The parallel mark is a concurrent same-value
	// store (several vertices share a label), so it goes through atomics for
	// the race detector's benefit; the outcome is order-independent.
	s.flags = buf.Grow(s.flags, n)
	flags := s.flags
	ec.ZeroInt64(flags)
	mapping := buf.Grow(mapBuf, n)
	if ec.Serial(n) {
		for v := 0; v < n; v++ {
			flags[labels[v]] = 1
		}
	} else {
		ec.For(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				atomic.StoreInt64(&flags[labels[v]], 1)
			}
		})
	}
	k := ec.ExclusiveSumInt64(flags)
	if ec.Serial(n) {
		for v := 0; v < n; v++ {
			mapping[v] = flags[labels[v]]
		}
	} else {
		ec.For(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				mapping[v] = flags[labels[v]]
			}
		})
	}
	sp.EndArgs("old", int64(n), "new", k)
	return ByMapping(ec, g, mapping, k, s, dst), mapping, k
}

// ByMapping contracts g under an arbitrary old→new vertex mapping with
// dense new ids in [0, k), using the same bucket kernel as Bucket.
// Matching-induced contraction merges pairs; this generalization collapses
// whole groups, which the engine's seed partitions and refinement use to
// rebuild the community graph from a partition. scratch supplies the
// reusable buffers and dst the output graph whose arrays are recycled; both may be nil for
// fresh allocations.
//
// The count and scatter sweeps never touch a shared atomic per edge. The
// old graph's edges are partitioned once into edge-exact spans (the
// engine's installed level partition when one matches g, a locally built
// one otherwise) — hub buckets may be split across spans; each span counts
// surviving edges (and accumulates collapsed-edge and old self-loop weight)
// into its own k-wide histogram stripe; the striped-offset reduction turns
// the stripes into per-(span, bucket) write cursors in parallel; and the
// scatter sweep replays the identical spans, so every span writes a
// disjoint sub-range of each destination bucket with plain stores. This is
// the radix-partition discipline Staudt & Meyerhenke and Lu & Halappanavar
// use in place of fetch-and-add on cache-based machines: the XMT's cheap
// hot-spot atomics have no analogue here, and one atomic per edge
// serializes exactly on the high-degree communities the parity hash is
// meant to spread.
func ByMapping(ec *exec.Ctx, g *graph.Graph, mapping []int64, k int64, scratch *Scratch, dst *graph.Graph) *graph.Graph {
	rec := ec.Recorder()
	s := scratch.orNew()
	ng := prepDst(dst, k) // single-assignment: ng is closure-captured below
	n := int(g.NumVertices())
	if n == 0 || k == 0 {
		ng.ResizeEdges(0)
		ng.SetCounts(k, 0)
		ec.ZeroInt64(ng.Self)
		ec.ZeroInt64(ng.Start)
		ec.ZeroInt64(ng.End)
		return ng
	}

	rec.Add(obs.CtrContractEdgesIn, g.NumEdges())

	// Adopt the engine's edge-balanced level partition when one is installed
	// for this graph, and build our own otherwise. Either way the count and
	// scatter sweeps walk the same edge-exact spans — each span owns a
	// private histogram stripe, which is the precondition for stripes
	// replacing atomics. Hub buckets may be split across spans; the Self
	// fold guards on owning the bucket's first edge so each vertex's
	// per-vertex work is folded exactly once.
	spPart := rec.Begin(obs.KernelContractPartition)
	serial := ec.Serial(n)
	pt := ec.Balanced(n, g.NumEdges())
	if pt == nil && !serial {
		ec.BuildBuckets(&s.part, n, g.Start, g.End)
		pt = &s.part
	}
	spans := 1
	if !serial {
		spans = pt.Workers()
	}
	spPart.EndArgs("workers", int64(spans), "vertices", int64(n))

	// Count surviving cross edges per (span, new bucket) stripe; collapsed
	// edges (both endpoints in one community) and old self-loops accumulate
	// into the span's self-loop stripe in the same sweep.
	spCount := rec.Begin(obs.KernelContractCount)
	kk := int(k)
	s.cntStripes = buf.Grow(s.cntStripes, spans*kk)
	s.selfStripes = buf.Grow(s.selfStripes, spans*kk)
	cntS, selfS := s.cntStripes, s.selfStripes
	ec.ZeroInt64(cntS)
	ec.ZeroInt64(selfS)
	// The sweep bodies are plain functions (closure literals handed to the
	// loop primitives escape and heap-allocate even on the one-worker path,
	// which would break the arena's zero-allocation steady state).
	if serial {
		countSweepRange(g, mapping, cntS[:kk], selfS[:kk], 0, n, g.Start[0], g.End[n-1])
	} else {
		ec.ForSpans("contract/count", pt, func(j int, sp par.Span) {
			base := j * kk
			countSweepRange(g, mapping, cntS[base:base+kk], selfS[base:base+kk], sp.LoV, sp.HiV, sp.LoE, sp.HiE)
		})
	}
	spCount.End()

	// Parallel reductions over span×bucket: per-bucket totals plus
	// exclusive per-span write offsets from the count stripes, and the new
	// self-loop weights from the self stripes (overwriting — reused dst
	// arrays never need pre-zeroing).
	spOff := rec.Begin(obs.KernelContractOffsets)
	s.counts = buf.Grow(s.counts, kk)
	counts := s.counts
	ec.StripeOffsets(cntS, spans, kk, counts)
	ec.MergeStripes(selfS, spans, kk, ng.Self)
	rec.ObserveBuckets(counts[:kk])

	// Bucket offsets: the exclusive prefix sum of the counts, so ng.Start[c]
	// is c's base position and buckets lie back to back in vertex order.
	ec.CopyInt64(ng.Start, counts[:kk])
	total := ec.ExclusiveSumInt64(ng.Start)
	// Absolute cursors: adding each bucket's base to every span's offset
	// lets the scatter store at cntS[first]++ with no per-edge Start load.
	ec.StripeCursors(cntS, spans, kk, ng.Start)
	ng.ResizeEdges(total)
	spOff.EndArgs("survived", total, "buckets", k)
	rec.Add(obs.CtrContractSurvived, total)

	// Scatter (j; w) into the bucket of the stored-first endpoint, leaving
	// the first endpoint implicit (§IV-C): the bucket is its owner, so no
	// owner is ever written. Each span replays exactly the edge range it
	// counted (same partition, same span index, so the same stripe),
	// advancing its private absolute cursors cntS[j·k+c] through the
	// per-span sub-range of each bucket: no synchronization at all.
	spScat := rec.Begin(obs.KernelContractScatter)
	if serial {
		scatterSweepRange(g, ng, mapping, cntS[:kk], 0, n, g.Start[0], g.End[n-1])
	} else {
		ec.ForSpans("contract/scatter", pt, func(j int, sp par.Span) {
			base := j * kk
			scatterSweepRange(g, ng, mapping, cntS[base:base+kk], sp.LoV, sp.HiV, sp.LoE, sp.HiE)
		})
	}
	spScat.End()

	// Fold duplicate neighbors in place and shorten each bucket. Merge cost
	// is linear in the bucket length, so the dedup ranges are statically
	// balanced over the surviving counts (the count/scatter schedule is spent
	// by now), under every scheduler. Each range owns a k-wide position
	// array; the count stripes are dead after the scatter, so they are zeroed
	// once and reused for it.
	spDedup := rec.Begin(obs.KernelContractDedup)
	hot := rec.Hot()
	var live int64
	if ec.Serial(kk) {
		pos := cntS[:kk]
		clear(pos)
		live = mergeBuckets(ng, counts, pos, hot, 0, kk)
	} else {
		ec.BuildWeights(&s.part, kk, counts)
		ranges := s.part.Workers()
		if ranges > spans {
			s.cntStripes = buf.Grow(s.cntStripes, ranges*kk)
		}
		posS := s.cntStripes[:ranges*kk]
		ec.ZeroInt64(posS)
		// ForRanges hides the range index, so each call claims a distinct
		// position array from a counter; at most one per range is needed.
		var next, acc atomic.Int64
		ec.ForRanges("contract/dedup", &s.part, func(lo, hi int) {
			j := int(next.Add(1)) - 1
			acc.Add(mergeBuckets(ng, counts, posS[j*kk:(j+1)*kk], hot, lo, hi))
		})
		live = acc.Load()
	}
	ng.SetCounts(k, live)
	spDedup.EndArgs("in", total, "out", live)
	rec.Add(obs.CtrContractEdgesOut, live)
	rec.FoldHot()
	return ng
}

// countSweepRange counts surviving cross edges into the span's k-wide
// stripe (cntS/selfS are already the span's sub-slices), folding
// collapsed-edge and old self-loop weight into the self stripe. The range
// follows the Span clamp discipline: eloFirst/ehiLast clamp the first and
// last bucket to the span's exact edge run. A vertex's per-vertex work —
// the old self-loop fold — belongs to the span piece that owns the
// bucket's first edge, so a hub bucket split across spans folds it exactly
// once. Every edge in x's bucket belongs to x, so x's new id is read once
// per bucket.
func countSweepRange(g *graph.Graph, mapping []int64, cntS, selfS []int64, lo, hi int, eloFirst, ehiLast int64) {
	for x := lo; x < hi; x++ {
		elo, ehi := g.Start[x], g.End[x]
		if x == lo {
			elo = eloFirst
		}
		if x == hi-1 {
			ehi = ehiLast
		}
		ni := mapping[x]
		if elo == g.Start[x] {
			if sw := g.Self[x]; sw != 0 {
				selfS[ni] += sw
			}
		}
		for e := elo; e < ehi; e++ {
			nj := mapping[g.V[e]]
			if ni == nj {
				selfS[ni] += g.W[e]
				continue
			}
			first, _ := graph.StoredOrder(ni, nj)
			cntS[first]++
		}
	}
}

// scatterSweepRange replays countSweepRange's exact edge range against the
// same stripe, now holding absolute positions: each surviving edge is
// written at its bucket's cursor, which then advances.
func scatterSweepRange(g, ng *graph.Graph, mapping []int64, cntS []int64, lo, hi int, eloFirst, ehiLast int64) {
	for x := lo; x < hi; x++ {
		elo, ehi := g.Start[x], g.End[x]
		if x == lo {
			elo = eloFirst
		}
		if x == hi-1 {
			ehi = ehiLast
		}
		ni := mapping[x]
		for e := elo; e < ehi; e++ {
			nj := mapping[g.V[e]]
			if ni == nj {
				continue
			}
			first, second := graph.StoredOrder(ni, nj)
			pos := cntS[first]
			cntS[first] = pos + 1
			ng.V[pos] = second
			ng.W[pos] = g.W[e]
		}
	}
}

// mergeBuckets folds the duplicate neighbors of buckets [lo, hi) of ng in
// place and returns the number of surviving edges. pos is the range's
// k-wide position array, all zero on entry and on return: while a bucket is
// merged, pos[v] is 1 + v's slot among the bucket's survivors, so a repeated
// neighbor adds its weight to that slot in O(1) and survivors keep their
// first-seen order. Walking the survivors afterwards resets pos for the next
// bucket. When hot is non-nil the range's merge time flushes into
// obs.CtrContractSortNS with one clock pair.
func mergeBuckets(ng *graph.Graph, counts, pos []int64, hot *obs.Hot, lo, hi int) int64 {
	var t0 int64
	if hot != nil {
		t0 = obs.NowNS()
	}
	var live int64
	for c := lo; c < hi; c++ {
		s := ng.Start[c]
		v, w := ng.V[s:s+counts[c]], ng.W[s:s+counts[c]]
		var out int64
		for i, x := range v {
			if p := pos[x]; p != 0 {
				w[p-1] += w[i]
				continue
			}
			v[out], w[out] = x, w[i]
			out++
			pos[x] = out
		}
		for _, x := range v[:out] {
			pos[x] = 0
		}
		ng.End[c] = s + out
		live += out
	}
	if hot != nil {
		hot.Add(obs.CtrContractSortNS, obs.NowNS()-t0)
	}
	return live
}
