// Incremental re-detection on the two-tier dynamic graph store. A delta
// batch touches a bounded neighborhood; Lu & Halappanavar's vertex-local
// heuristics justify re-optimizing only that neighborhood, so instead of
// re-running the whole agglomeration the engine dissolves exactly the
// previous communities incident to the batch back to singleton vertices,
// keeps every other community frozen, and re-agglomerates the dissolved
// region against the frozen remainder through the ordinary matching and
// contraction kernels.

package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/buf"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/par"
)

// seedPartition is the engine-internal seed of one incremental run: a dense
// vertex→community assignment with k communities (ids below clean are the
// kept previous communities, the rest the dissolved vertices as
// singletons), plus the dissolution counters the convergence ledger
// reports. With a carry, the seed stage measures the partition from the
// previous run's figures instead of sweeping the graph.
type seedPartition struct {
	comm      []int64
	k         int64
	clean     int64
	dissolved int64 // previous communities dissolved to singletons
	prevK     int64 // communities in the previous partition

	// The warm measure's inputs: the carry (nil runs the sweep), the
	// previous community → seed id map (-1 when dissolved), the dissolved
	// vertices in seed id order, and the overlay's merged weighted degrees
	// and total weight.
	carry   *seedCarry
	remap   []int64
	singles []int64
	vdeg    []int64
	total   int64
	// intra is the seed communities' intra weight once the seed stage
	// measured them (nil when it contracted instead); scheduled records
	// that the input's schedule is built.
	intra     []int64
	scheduled bool
}

// schedule builds, once per run, the edge-balanced schedule over the input
// g that the seed sweep and the seed contraction share, into pt, and
// installs it on ec (the loop rebuilds its own per level). It returns nil
// on a serial context.
func (sp *seedPartition) schedule(ec *exec.Ctx, g *graph.Graph, pt *par.Partition) *par.Partition {
	n := int(g.NumVertices())
	if ec.Serial(n) {
		return nil
	}
	if !sp.scheduled {
		ec.BuildBuckets(pt, n, g.Start, g.End)
		ec.SetPartition(pt)
		sp.scheduled = true
	}
	return pt
}

// seedCarry is one incremental run's final partition measure, kept in the
// arena for the next run: each final community's weighted degree and
// intra weight (its self-loops plus the edges inside it). An update (u, v)
// dissolves the communities of u and v, so no community the next batch
// leaves clean changes either figure. The carry is tagged with the overlay
// it measured, the overlay's applied-batch count at the time, and the
// dendrogram the run returned; the next run uses it only when all three
// still match, and otherwise sweeps.
type seedCarry struct {
	ov      *graph.Overlay
	batches int64
	dend    *hierarchy.Dendrogram
	ok      bool
	deg     []int64
	intra   []int64
}

// keep records a final partition's community degrees and intra weights.
func (c *seedCarry) keep(ec *exec.Ctx, deg, intra []int64) {
	c.deg = buf.Grow(c.deg, len(deg))
	c.intra = buf.Grow(c.intra, len(intra))
	ec.CopyInt64(c.deg, deg)
	ec.CopyInt64(c.intra, intra)
}

// IncrementalResult is one incremental re-detection's output: the ordinary
// detection Result plus the chaining state for the next batch.
type IncrementalResult struct {
	*Result
	// Dendrogram is the merge hierarchy of this run, ready to seed the next
	// DetectIncrementalWithContext call. When the engine ran with
	// DiscardLevels (or RefineEveryPhase moved vertices across the recorded
	// levels) it is a one-level bootstrap carrying only the final partition.
	// It takes the Result's Levels over (Final() is the first level itself
	// when only the seed level ran), so a caller that edits Levels must copy
	// them first; it never shares CommunityOf.
	Dendrogram *hierarchy.Dendrogram
	// Graph is the compacted frozen base the detection ran on. It is
	// overlay-owned and valid until the next Compact, which patches it in
	// place or replaces it: Clone it to keep it longer.
	Graph *graph.Graph
	// DirtyCommunities counts previous communities incident to the batch
	// (dissolved); DissolvedVertices the singletons they released;
	// PrevCommunities the previous partition's community count.
	DirtyCommunities  int64
	DissolvedVertices int64
	PrevCommunities   int64
}

// DetectIncrementalWithContext applies batch to the overlay, compacts it,
// and re-detects communities starting from prev's final partition with the
// batch-incident communities dissolved. The options follow DetectContext;
// the incremental path requires EngineMatching (the PLP engines re-label
// globally, which defeats the frozen remainder). The run uses the arena s (a
// nil s runs on a new one): a serving loop feeding batch after batch through
// one Scratch keeps the steady state off the heap, since the arena carries
// the dirty flags, the seed partition, and every engine buffer across runs.
// It also carries the run's final community degrees and intra weights, so
// the next call with this overlay and the returned dendrogram measures its
// seed partition in O(batch + communities) instead of sweeping the graph.
// Invalid options are rejected before the batch touches the overlay. The
// batch is applied and compacted before the first cancellation check, so a
// cancelled run leaves the overlay consistent (batch absorbed) and returns
// the engine's partial result.
func DetectIncrementalWithContext(ctx context.Context, ov *graph.Overlay, prev *hierarchy.Dendrogram, batch *graph.Delta, opt Options, s *Scratch) (*IncrementalResult, error) {
	if ov == nil {
		return nil, fmt.Errorf("core: nil overlay")
	}
	if prev == nil {
		return nil, fmt.Errorf("core: nil previous dendrogram")
	}
	if batch == nil {
		return nil, fmt.Errorf("core: nil delta batch")
	}
	if opt.Engine != EngineMatching {
		return nil, fmt.Errorf("core: incremental re-detection requires the matching engine, got %s", opt.Engine)
	}
	if err := validateOptions(opt); err != nil {
		return nil, err
	}
	if prev.NumVertices() != ov.NumVertices() {
		return nil, fmt.Errorf("core: dendrogram over %d vertices, overlay has %d",
			prev.NumVertices(), ov.NumVertices())
	}
	s = s.orNew()
	// The carry applies when it measured this overlay right after the batch
	// before this one, for the partition prev holds. Whatever happens below,
	// it is spent: only a completed run leaves a new one.
	c := &s.carry
	_, prevK := prev.Final()
	warm := c.ok && c.ov == ov && c.dend == prev && c.batches == ov.Stats().Batches && int64(len(c.deg)) == prevK
	c.ok = false

	// The overlay spans attribute the fold's time in a traced run; with a
	// nil recorder they cost one clock read at each end.
	sp := opt.Recorder.Begin(obs.KernelOverlayApply)
	err := ov.ApplyDelta(batch)
	sp.End()
	if err != nil {
		return nil, err
	}
	// The kernels consume the frozen bucketed representation, so the overlay
	// is folded unconditionally; in-place compaction rewrites only the
	// buckets the batch touched.
	sp = opt.Recorder.Begin(obs.KernelOverlayCompact)
	g, err := ov.Compact()
	sp.End()
	if err != nil {
		return nil, err
	}

	ec := exec.Acquire(ctx, opt.Threads, opt.Recorder)
	defer ec.Release()
	seed := dissolve(ec, s, g.NumVertices(), prev, batch)
	if warm {
		seed.carry = c
		seed.vdeg, seed.total = ov.WeightedDegrees(), ov.TotalWeight()
	}
	res, derr := detect(ec, g, opt, s, seed)
	if res == nil {
		return nil, derr
	}
	n := g.NumVertices()
	ir := &IncrementalResult{
		Result:            res,
		Graph:             g,
		DirtyCommunities:  seed.dissolved,
		DissolvedVertices: seed.k - seed.clean,
		PrevCommunities:   seed.prevK,
	}
	if derr != nil {
		// Canceled mid-run: hand back the partial result without a
		// dendrogram (the partial levels need not compose).
		return ir, derr
	}
	if len(res.Levels) > 0 && !opt.RefineEveryPhase {
		ir.Dendrogram, err = hierarchy.New(n, res.Levels)
	} else {
		// DiscardLevels (or refinement moved vertices across the recorded
		// maps): bootstrap a one-level dendrogram so chaining still works.
		ir.Dendrogram, err = hierarchy.FromFinal(n, res.CommunityOf, res.NumCommunities)
	}
	if err != nil {
		return ir, fmt.Errorf("core: incremental dendrogram: %w", err)
	}
	// detect kept the final partition's figures in c.
	c.ov, c.batches, c.dend, c.ok = ov, ov.Stats().Batches, ir.Dendrogram, true
	return ir, nil
}

// dissolve builds the seed partition of n vertices from prev's final
// partition: the communities incident to batch (endpoints were validated by
// ApplyDelta) are dissolved, the clean ones keep their relative order under
// dense ids, and the dissolved vertices become singletons numbered after
// them in vertex order. The dirty communities are collected once, sorted,
// so a community's new id is its old one less the dirty ids below it; both
// O(n) and O(previous communities) passes run on the team, and the
// dissolved vertices are gathered per worker, in vertex order, while the
// clean ones are numbered.
func dissolve(ec *exec.Ctx, s *Scratch, n int64, prev *hierarchy.Dendrogram, batch *graph.Delta) *seedPartition {
	prevComm, prevK := prev.Final()
	// s.dirty is all false between runs: every flag set here is cleared
	// again right after.
	s.dirty = buf.Grow(s.dirty, int(prevK))
	dirty, dl := s.dirty, s.dirtyList[:0]
	for _, up := range batch.Updates {
		for _, c := range [2]int64{prevComm[up.U], prevComm[up.V]} {
			if !dirty[c] {
				dirty[c] = true
				dl = append(dl, c)
			}
		}
	}
	for _, c := range dl {
		dirty[c] = false
	}
	slices.Sort(dl)
	s.dirtyList = dl
	clean := prevK - int64(len(dl))

	s.remap = buf.Grow(s.remap, int(prevK))
	s.seedComm = buf.Grow(s.seedComm, int(n))
	remap, seedComm := s.remap, s.seedComm
	workers := ec.Workers(int(n))
	for len(s.singleLists) < workers {
		s.singleLists = append(s.singleLists, nil)
	}
	used := 1
	if ec.Serial(int(n)) {
		remapRange(remap, dl, 0, int(prevK))
		keepRange(s.singleLists, remap, prevComm, seedComm, 0, 0, int(n))
	} else {
		ec.For(int(prevK), func(lo, hi int) { remapRange(remap, dl, lo, hi) })
		used = ec.ForWorker(int(n), func(w, lo, hi int) {
			keepRange(s.singleLists, remap, prevComm, seedComm, w, lo, hi)
		})
	}
	singles := s.singles[:0]
	for _, lst := range s.singleLists[:used] {
		for _, v := range lst {
			seedComm[v] = clean + int64(len(singles))
			singles = append(singles, v)
		}
	}
	s.singles = singles
	return &seedPartition{
		comm: seedComm, k: clean + int64(len(singles)), clean: clean,
		dissolved: int64(len(dl)), prevK: prevK, remap: remap, singles: singles,
	}
}

// remapRange numbers previous communities [lo, hi): -1 when dirty (dl is
// the sorted dirty list), else the id less the dirty ids below it.
func remapRange(remap, dl []int64, lo, hi int) {
	i, _ := slices.BinarySearch(dl, int64(lo))
	for c := lo; c < hi; c++ {
		if i < len(dl) && dl[i] == int64(c) {
			remap[c] = -1
			i++
		} else {
			remap[c] = int64(c - i)
		}
	}
}

// keepRange gives vertices [lo, hi) of a clean community their seed id and
// lists the dissolved ones, in vertex order, in lists[w].
func keepRange(lists [][]int64, remap, prevComm, seedComm []int64, w, lo, hi int) {
	lst := lists[w][:0]
	for v := lo; v < hi; v++ {
		if r := remap[prevComm[v]]; r >= 0 {
			seedComm[v] = r
		} else {
			lst = append(lst, int64(v))
		}
	}
	lists[w] = lst
}
