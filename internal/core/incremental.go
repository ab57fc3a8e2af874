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

	"repro/internal/buf"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/obs"
)

// seedPartition is the engine-internal seed of one incremental run: a dense
// vertex→community assignment with k communities, plus the dissolution
// counters the convergence ledger reports.
type seedPartition struct {
	comm      []int64
	k         int64
	dissolved int64 // previous communities dissolved to singletons
	prevK     int64 // communities in the previous partition
}

// IncrementalResult is one incremental re-detection's output: the ordinary
// detection Result plus the chaining state for the next batch.
type IncrementalResult struct {
	*Result
	// Dendrogram is the merge hierarchy of this run, ready to seed the next
	// DetectIncrementalWithContext call. When the engine ran with
	// DiscardLevels (or RefineEveryPhase moved vertices across the recorded
	// levels) it is a one-level bootstrap carrying only the final partition.
	// It takes the Result's Levels over (the first level is its level-1
	// partition, and Final() when only the seed level ran), so a caller that
	// edits Levels must copy them first.
	Dendrogram *hierarchy.Dendrogram
	// Graph is the compacted frozen base the detection ran on. It is
	// overlay-owned: valid until the second following Compact (Clone to
	// keep it longer).
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
	// The overlay spans attribute the fold's time in a traced run; with a
	// nil recorder they cost nothing.
	sp := opt.Recorder.Begin(obs.CatKernel, "overlay/apply", -1)
	err := ov.ApplyDelta(batch)
	sp.End()
	if err != nil {
		return nil, err
	}
	// The kernels consume the frozen triple representation, so the overlay
	// is folded unconditionally: one merge-and-copy pass here, against many
	// per-phase passes saved below.
	sp = opt.Recorder.Begin(obs.CatKernel, "overlay/compact", -1)
	g, err := ov.Compact()
	sp.End()
	if err != nil {
		return nil, err
	}

	n := g.NumVertices()
	prevComm, prevK := prev.Final()

	s = s.orNew()
	s.dirty = buf.Grow(s.dirty, int(prevK))
	s.remap = buf.Grow(s.remap, int(prevK))
	s.seedComm = buf.Grow(s.seedComm, int(n))
	dirty, remap, seedComm := s.dirty, s.remap, s.seedComm
	clear(dirty)

	// Mark the communities incident to the batch dirty. Endpoints were
	// validated by ApplyDelta above.
	for _, up := range batch.Updates {
		dirty[prevComm[up.U]] = true
		dirty[prevComm[up.V]] = true
	}
	// Clean communities keep their relative order under dense new ids;
	// dissolved members become singletons numbered after them.
	var k0, dirtyCount int64
	for c := int64(0); c < prevK; c++ {
		if dirty[c] {
			remap[c] = -1
			dirtyCount++
		} else {
			remap[c] = k0
			k0++
		}
	}
	clean := k0
	for v := int64(0); v < n; v++ {
		if r := remap[prevComm[v]]; r >= 0 {
			seedComm[v] = r
		} else {
			seedComm[v] = k0
			k0++
		}
	}
	seed := &seedPartition{comm: seedComm, k: k0, dissolved: dirtyCount, prevK: prevK}

	ec := exec.Acquire(ctx, opt.Threads, opt.Recorder)
	defer ec.Release()
	res, derr := detect(ec, g, opt, s, seed)
	if res == nil {
		return nil, derr
	}
	ir := &IncrementalResult{
		Result:            res,
		Graph:             g,
		DirtyCommunities:  dirtyCount,
		DissolvedVertices: k0 - clean,
		PrevCommunities:   prevK,
	}
	if derr != nil {
		// Canceled mid-run: hand back the partial result without a
		// dendrogram (the partial levels need not compose).
		return ir, derr
	}
	if len(res.Levels) > 0 && !opt.RefineEveryPhase {
		ir.Dendrogram, err = hierarchy.NewExec(ec, n, res.Levels)
	} else {
		// DiscardLevels (or refinement moved vertices across the recorded
		// maps): bootstrap a one-level dendrogram so chaining still works.
		ir.Dendrogram, err = hierarchy.FromFinal(n, res.CommunityOf, res.NumCommunities)
	}
	if err != nil {
		return ir, fmt.Errorf("core: incremental dendrogram: %w", err)
	}
	return ir, nil
}
