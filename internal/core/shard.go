package core

// Sharded detection is the out-of-core mode (DESIGN.md §15): the input
// arrives as a symmetric CSR view — typically backed by a memory-mapped
// mmapcsr file — and is never materialized whole on the heap. The vertex
// space is cut into K contiguous shards by the same degree-prefix-sum
// edge-balanced partitioner the per-level scheduler uses; each shard
// extracts its induced subgraph, runs the standard engine on its own
// execution context and scratch arena in parallel with its peers, and the
// boundary structure — every cut edge, plus each shard's local community
// graph — folds into one quotient graph on which a final matching
// agglomeration stitches communities across shard boundaries. The result
// chains into a single dendrogram: level 0 maps vertices to per-shard
// communities, the remaining levels are the stitch's merge hierarchy.
//
// The blueprint is Lu & Halappanavar's partition-local detection with a
// cross-partition consolidation pass: community structure is mostly local,
// so detecting inside edge-dense shards and reconciling only the quotient
// of the cut preserves quality while each worker touches a subgraph that
// fits its cache (and, out-of-core, its RAM slice).

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/par"
)

// ShardOptions configures a sharded detection run.
type ShardOptions struct {
	// Shards is K, the number of vertex shards; <= 1 runs a single shard
	// (the whole graph through one engine run plus a no-op stitch). The
	// partitioner may clamp K down on tiny graphs.
	Shards int
	// Opt is the engine configuration template. Threads is the TOTAL worker
	// budget, split evenly across concurrently-running shards (each shard
	// gets at least one). Recorder and Ledger are coordinator-level: shard
	// runs receive neither (they are not concurrency-safe); the coordinator
	// records one StageShard ledger row per shard and a StageStitch summary
	// after the run, and the stitch phase reuses the Recorder serially.
	// RefineEveryPhase is forced off for the stitch so the dendrogram's
	// level maps stay composable.
	Opt Options
}

// ShardStat describes one shard's local detection.
type ShardStat struct {
	Shard int `json:"shard"`
	// FirstVertex/LastVertex delimit the shard's contiguous vertex range
	// [FirstVertex, LastVertex).
	FirstVertex int64 `json:"first_vertex"`
	LastVertex  int64 `json:"last_vertex"`
	// Vertices/Edges describe the extracted induced subgraph; CutEdges is
	// the number of boundary edges this shard recorded (each cut edge is
	// recorded by exactly one of its two shards).
	Vertices int64 `json:"vertices"`
	Edges    int64 `json:"edges"`
	CutEdges int64 `json:"cut_edges"`
	// Communities is the shard's local community count; CommunityEdges the
	// edge count of its community graph (the shard's quotient contribution).
	Communities    int64 `json:"communities"`
	CommunityEdges int64 `json:"community_edges"`
	// Imbalance is the shard's scheduled edge-load share over the even
	// share (1 = perfect balance across shards).
	Imbalance float64 `json:"imbalance"`
	// Detect is the shard's wall-clock detection time (extraction included).
	Detect time.Duration `json:"detect"`
}

// ShardResult is the outcome of DetectSharded.
type ShardResult struct {
	// CommunityOf maps every input vertex to its final (stitched) community.
	CommunityOf    []int64
	NumCommunities int64
	// FinalModularity and FinalCoverage are global: the stitch evaluates
	// them on the quotient graph, whose weights are exactly the input's, so
	// they equal the metrics of the final partition on the original graph.
	FinalModularity float64
	FinalCoverage   float64
	// Dendrogram chains the whole run: level 0 is the vertex → per-shard
	// community map, the remaining levels are the stitch's merge phases
	// (shared with Stitch.Levels). It stores the maps and the final
	// partition, O(n + Σ level sizes); CommunityOf is a copy of Final().
	Dendrogram *hierarchy.Dendrogram
	// Shards has one entry per shard; Stitch is the quotient-graph run.
	Shards []ShardStat
	Stitch *Result
	// QuotientVertices/QuotientEdges describe the stitch input; CutEdges is
	// the total boundary edge count.
	QuotientVertices int64
	QuotientEdges    int64
	CutEdges         int64
	Total            time.Duration
}

// shardLocal is one shard's output, filled by its goroutine.
type shardLocal struct {
	comm []int64      // local vertex → local community
	k    int64        // local community count
	cg   *graph.Graph // local community graph (quotient contribution)
	cut  []graph.Edge // boundary edges in global vertex ids
	stat ShardStat
	err  error
}

// DetectSharded partitions c's vertices into opt.Shards edge-balanced
// contiguous shards, detects communities per shard in parallel, and
// stitches boundary communities with one agglomeration pass over the
// quotient graph of per-shard community graphs and cut edges. The CSR is
// only read row-by-row — when it views an mmapcsr mapping, the full edge
// set never lands on the heap. The result is deterministic for a fixed
// shard count, independent of the thread budget.
func DetectSharded(ctx context.Context, c *graph.CSR, opt ShardOptions) (*ShardResult, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil CSR")
	}
	n := c.NumVertices()
	if n == 0 {
		return nil, fmt.Errorf("core: sharded detection on empty graph")
	}
	if opt.Opt.Engine < EngineMatching || opt.Opt.Engine > EngineEnsemble {
		return nil, fmt.Errorf("core: unknown engine %d", int(opt.Opt.Engine))
	}
	start := time.Now()
	rec := opt.Opt.Recorder
	led := opt.Opt.Ledger
	led.Reset()

	// Shard boundaries from the degree prefix sum: shard k owns the
	// contiguous vertex range Range(k), each range carrying an even share
	// of adjacency entries (+1 per vertex, so empty rows still spread).
	K := opt.Shards
	if K < 1 {
		K = 1
	}
	if int64(K) > n {
		K = int(n)
	}
	pt := &par.Partition{}
	rowStart, rowEnd := c.RowBounds()
	pt.BuildBuckets(nil, K, int(n), rowStart, rowEnd)
	K = pt.Workers()

	threads := opt.Opt.Threads
	if threads <= 0 {
		threads = par.DefaultThreads()
	}
	perShard := threads / K
	if perShard < 1 {
		perShard = 1
	}

	// Per-shard detection, one goroutine per shard, each on its own pooled
	// execution context and scratch arena.
	locals := make([]shardLocal, K)
	sSpan := rec.Begin(obs.KernelShards)
	var wg sync.WaitGroup
	for k := 0; k < K; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			lo, hi := pt.Range(k)
			locals[k] = detectShard(ctx, c, int64(lo), int64(hi), k, perShard, opt.Opt)
		}(k)
	}
	wg.Wait()
	sSpan.EndArgs("shards", int64(K), "threads_per_shard", int64(perShard))
	for k := range locals {
		if err := locals[k].err; err != nil {
			return nil, fmt.Errorf("core: shard %d: %w", k, err)
		}
	}
	// Scheduled load share per shard: adjacency entries (+1 per vertex,
	// matching the partitioner's weights) over the even K-way share.
	schedTotal := float64(rowEnd[n-1]-rowStart[0]) + float64(n)
	for k := 0; k < K; k++ {
		lo, hi := pt.Range(k)
		w := float64(hi - lo)
		if hi > lo {
			w += float64(rowEnd[hi-1] - rowStart[lo])
		}
		locals[k].stat.Imbalance = w * float64(K) / schedTotal
	}

	qg, globalComm, totalCut, err := quotient(threads, n, pt, locals)
	if err != nil {
		return nil, err
	}
	q := qg.NumVertices()

	// Stitch: one matching agglomeration over the quotient, run to its
	// normal termination. Level maps are kept so the dendrogram chains;
	// refinement is forced off because it would decouple CommunityOf from
	// the level composition.
	tSpan := rec.Begin(obs.KernelStitch)
	sopt := opt.Opt
	sopt.Threads = threads
	sopt.Engine = EngineMatching
	sopt.Recorder = rec
	sopt.Ledger = nil
	sopt.DiscardLevels = false
	sopt.RefineEveryPhase = false
	stitch, err := DetectContext(ctx, qg, sopt)
	tSpan.EndArgs("quotient_vertices", q, "cut_edges", totalCut)
	if err != nil {
		return nil, fmt.Errorf("core: stitch: %w", err)
	}

	dend, err := hierarchy.New(n, append([][]int64{globalComm}, stitch.Levels...))
	if err != nil {
		return nil, fmt.Errorf("core: sharded dendrogram: %w", err)
	}
	final, _ := dend.Final()

	res := &ShardResult{
		CommunityOf:      append([]int64(nil), final...),
		NumCommunities:   stitch.NumCommunities,
		FinalModularity:  stitch.FinalModularity,
		FinalCoverage:    stitch.FinalCoverage,
		Dendrogram:       dend,
		Stitch:           stitch,
		QuotientVertices: q,
		QuotientEdges:    qg.NumEdges(),
		CutEdges:         totalCut,
		Total:            time.Since(start),
	}
	res.Shards = make([]ShardStat, K)
	for k := 0; k < K; k++ {
		res.Shards[k] = locals[k].stat
	}
	if led.Enabled() {
		for k := 0; k < K; k++ {
			st := locals[k].stat
			// Record derives MergedVertices/MergeFraction from
			// Vertices−OutVertices: for a shard row that is the number of
			// vertices its local detection merged away.
			led.Record(obs.LevelStats{
				Stage:          obs.StageShard,
				Level:          k,
				Shard:          k,
				Vertices:       st.Vertices,
				Edges:          st.Edges,
				OutVertices:    st.Communities,
				OutEdges:       st.CommunityEdges,
				CutEdges:       st.CutEdges,
				SchedImbalance: st.Imbalance,
			})
		}
		led.Record(obs.LevelStats{
			Stage:       obs.StageStitch,
			Level:       0,
			Vertices:    q,
			Edges:       qg.NumEdges(),
			OutVertices: stitch.NumCommunities,
			Metric:      stitch.FinalModularity,
			Coverage:    stitch.FinalCoverage,
			CutEdges:    totalCut,
			MatchPasses: len(stitch.Stats),
		})
	}
	// One post-run heap sample into the flight ring: the acceptance signal
	// for the out-of-core claim is that this stays far below the
	// materialized single-image run's.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	obs.Flight().Record(obs.FlightMark, "shard", "heap-sample",
		fmt.Sprintf("shards=%d heap_alloc=%d heap_sys=%d total_alloc=%d", K, ms.HeapAlloc, ms.HeapSys, ms.TotalAlloc), 0)
	rec.ObserveLatency(obs.KernelDetect, res.Total.Nanoseconds())
	return res, nil
}

// quotient assigns global community ids — shard k's communities occupy
// [base[k], base[k]+k_k), densely, so the composed vertex map globalComm is
// a valid dendrogram level — and builds the quotient graph: every shard's
// community graph (self-loops carried as explicit loop edges so the builder
// folds them back into Self) plus every cut edge mapped to its endpoints'
// communities. Weights are preserved exactly, so modularity/coverage on the
// quotient equal the same metrics of the induced partition on the input.
// Shard k fills its own slice [qOff[k], qOff[k+1]) of the edge list, so the
// shards fill in parallel, and each shard's community graph is released
// once copied. graph.Build canonicalizes the quotient, so it depends only on
// the shards' edge sets, not on their community graphs' layouts.
func quotient(threads int, n int64, pt *par.Partition, locals []shardLocal) (qg *graph.Graph, globalComm []int64, totalCut int64, err error) {
	K := len(locals)
	base := make([]int64, K+1)
	for k := 0; k < K; k++ {
		base[k+1] = base[k] + locals[k].k
	}
	globalComm = make([]int64, n)
	par.For(threads, K, func(klo, khi int) {
		for k := klo; k < khi; k++ {
			lo, _ := pt.Range(k)
			for i, lc := range locals[k].comm {
				globalComm[int64(lo)+int64(i)] = base[k] + lc
			}
		}
	})

	qOff := make([]int64, K+1)
	for k := 0; k < K; k++ {
		cg := locals[k].cg
		loops := int64(0)
		for _, s := range cg.Self {
			if s != 0 {
				loops++
			}
		}
		qOff[k+1] = qOff[k] + cg.NumEdges() + loops + int64(len(locals[k].cut))
		totalCut += int64(len(locals[k].cut))
	}
	qEdges := make([]graph.Edge, qOff[K])
	par.For(threads, K, func(klo, khi int) {
		for k := klo; k < khi; k++ {
			fillQuotient(qEdges[qOff[k]:qOff[k+1]], &locals[k], base[k], globalComm)
			locals[k].cg = nil // release the shard's community graph
		}
	})
	qg, err = graph.Build(threads, base[K], qEdges)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("core: quotient graph: %w", err)
	}
	return qg, globalComm, totalCut, nil
}

// fillQuotient writes shard l's quotient edges into dst, which has exactly
// their number of slots: its community graph's edges and non-zero
// self-loops shifted to the shard's community id base b, then its cut
// edges mapped through globalComm.
func fillQuotient(dst []graph.Edge, l *shardLocal, b int64, globalComm []int64) {
	i := 0
	l.cg.ForEachEdge(func(_ int64, u, v, w int64) {
		dst[i] = graph.Edge{U: b + u, V: b + v, W: w}
		i++
	})
	for lc, s := range l.cg.Self {
		if s != 0 {
			dst[i] = graph.Edge{U: b + int64(lc), V: b + int64(lc), W: s}
			i++
		}
	}
	for _, e := range l.cut {
		dst[i] = graph.Edge{U: globalComm[e.U], V: globalComm[e.V], W: e.W}
		i++
	}
}

// detectShard extracts shard k's induced subgraph from the CSR and runs the
// standard engine on it with its own execution context and arena. The
// extraction validates the shard's rows and records its cut edges in global
// vertex ids from the lower endpoint's side, so across all shards each cut
// edge appears exactly once. The shard's community graph is the engine's
// final level, taken from the arena rather than contracted again.
func detectShard(ctx context.Context, c *graph.CSR, lo, hi int64, k, threads int, tmpl Options) shardLocal {
	t0 := time.Now()
	var out shardLocal
	out.stat = ShardStat{Shard: k, FirstVertex: lo, LastVertex: hi, Vertices: hi - lo}
	sg, cut, err := graph.InducedFromCSR(c, lo, hi)
	if err != nil {
		out.err = err
		return out
	}
	out.cut = cut
	out.stat.Edges = sg.NumEdges()
	out.stat.CutEdges = int64(len(out.cut))

	dopt := tmpl
	dopt.Threads = threads
	dopt.Recorder = nil
	dopt.Ledger = nil
	dopt.DiscardLevels = true
	ec := exec.Acquire(ctx, threads, nil)
	defer ec.Release()
	s := NewScratch()
	res, err := DetectExec(ec, sg, dopt, s)
	if err != nil {
		out.err = err
		return out
	}
	out.comm = res.CommunityOf
	out.k = res.NumCommunities
	out.cg = s.final
	out.stat.Communities = res.NumCommunities
	out.stat.CommunityEdges = out.cg.NumEdges()
	out.stat.Detect = time.Since(t0)
	return out
}
