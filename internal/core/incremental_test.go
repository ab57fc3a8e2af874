package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"testing"

	"repro/internal/contract"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/seq"
)

// bootstrapIncremental runs a from-scratch detection on g and wraps the
// state (overlay + dendrogram) an incremental chain starts from.
func bootstrapIncremental(t *testing.T, g *graph.Graph, opt Options) (*graph.Overlay, *hierarchy.Dendrogram) {
	t.Helper()
	res, err := DetectContext(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	d, err := hierarchy.FromFinal(g.NumVertices(), res.CommunityOf, res.NumCommunities)
	if err != nil {
		t.Fatal(err)
	}
	return graph.NewOverlay(opt.Threads, g), d
}

// randomBatch fills d with churn updates: inserts between random vertices
// and deletes sampled from the live edges of ref.
func randomBatch(r *par.RNG, ref *graph.Graph, size int, version uint64) *graph.Delta {
	n := ref.NumVertices()
	edges := ref.Edges()
	d := &graph.Delta{Version: version}
	for i := 0; i < size; i++ {
		if r.Intn(2) == 0 && len(edges) > 0 {
			e := edges[r.Intn(len(edges))]
			d.Delete(e.U, e.V)
		} else {
			d.Insert(r.Int63n(n), r.Int63n(n), r.Int63n(3)+1)
		}
	}
	return d
}

func TestDetectIncrementalMatchesScratchDetection(t *testing.T) {
	g := gen.CliqueChain(24, 8)
	opt := Options{Threads: 2}
	ov, dend := bootstrapIncremental(t, g, opt)
	r := par.NewRNG(42)
	for round := 0; round < 8; round++ {
		batch := randomBatch(r, ov.Base(), 12, uint64(round+1))
		ir, err := DetectIncrementalWithContext(context.Background(), ov, dend, batch, opt, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		dend = ir.Dendrogram

		// From-scratch on the same compacted graph must agree within the
		// engine tolerance. The incremental run may be on either side of the
		// scratch run (both are greedy heuristics), so compare magnitudes.
		scratch, err := DetectContext(context.Background(), ir.Graph, opt)
		if err != nil {
			t.Fatal(err)
		}
		if diff := scratch.FinalModularity - ir.FinalModularity; diff > engineTolerance {
			t.Fatalf("round %d: incremental modularity %.4f vs scratch %.4f (diff %.4f > %v)",
				round, ir.FinalModularity, scratch.FinalModularity, diff, engineTolerance)
		}
		if ir.NumCommunities <= 0 || ir.NumCommunities > ir.Graph.NumVertices() {
			t.Fatalf("round %d: %d communities of %d vertices", round, ir.NumCommunities, ir.Graph.NumVertices())
		}
		// The chained dendrogram must reproduce the result's partition.
		comm, k := dend.Final()
		if k != ir.NumCommunities {
			t.Fatalf("round %d: dendrogram k=%d, result %d", round, k, ir.NumCommunities)
		}
		for v := range comm {
			if comm[v] != ir.CommunityOf[v] {
				t.Fatalf("round %d: dendrogram and result disagree at vertex %d", round, v)
			}
		}
	}
}

func TestDetectIncrementalAgainstSeqOracle(t *testing.T) {
	g := gen.CliqueChain(20, 6)
	opt := Options{Threads: 2}
	ov, dend := bootstrapIncremental(t, g, opt)
	r := par.NewRNG(7)
	for round := 0; round < 5; round++ {
		batch := randomBatch(r, ov.Base(), 10, uint64(round+1))
		ir, err := DetectIncrementalWithContext(context.Background(), ov, dend, batch, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		dend = ir.Dendrogram
		oracle := seq.Detect(ir.Graph, seq.Options{})
		if ir.FinalModularity < oracle.Modularity-engineTolerance {
			t.Fatalf("round %d: incremental modularity %.4f below seq oracle %.4f - %v",
				round, ir.FinalModularity, oracle.Modularity, engineTolerance)
		}
	}
}

func TestDetectIncrementalValidatedRun(t *testing.T) {
	// Full invariant checking through the seed contraction and every phase.
	g := gen.CliqueChain(16, 6)
	opt := Options{Threads: 2, Validate: true}
	ov, dend := bootstrapIncremental(t, g, opt)
	batch := &graph.Delta{Version: 1}
	batch.Insert(0, g.NumVertices()-1, 2)
	batch.Delete(0, 1)
	batch.Insert(3, 3, 1)
	if _, err := DetectIncrementalWithContext(context.Background(), ov, dend, batch, opt, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDetectIncrementalTracesOverlayFold checks that a traced incremental
// run attributes the batch's apply and compaction to kernel spans of their
// own, ahead of the detection's.
func TestDetectIncrementalTracesOverlayFold(t *testing.T) {
	g := gen.CliqueChain(16, 6)
	opt := Options{Threads: 2}
	ov, dend := bootstrapIncremental(t, g, opt)
	batch := &graph.Delta{Version: 1}
	batch.Insert(0, g.NumVertices()-1, 2)
	batch.Delete(0, 1)
	opt.Recorder = obs.New()
	if _, err := DetectIncrementalWithContext(context.Background(), ov, dend, batch, opt, nil); err != nil {
		t.Fatal(err)
	}
	ks := opt.Recorder.KernelSeconds()
	if len(ks) < 3 || ks[0].Kernel != "overlay/apply" || ks[1].Kernel != "overlay/compact" {
		t.Fatalf("kernel rows %+v, want overlay/apply and overlay/compact first", ks)
	}
	for _, k := range ks[:2] {
		if k.Spans != 1 {
			t.Fatalf("%s: %d spans, want 1", k.Kernel, k.Spans)
		}
	}
}

// TestDetectIncrementalRejectsBadInputs checks every rejected call fails
// before its batch reaches the overlay: the edge count, the version and the
// merged view all stay as they were.
func TestDetectIncrementalRejectsBadInputs(t *testing.T) {
	g := gen.CliqueChain(8, 4)
	opt := Options{Threads: 1}
	ov, dend := bootstrapIncremental(t, g, opt)
	view := func() map[[2]int64]int64 {
		m := map[[2]int64]int64{}
		for x := int64(0); x < ov.NumVertices(); x++ {
			m[[2]int64{x, x}] = ov.SelfLoop(x)
			ov.ForNeighbors(x, func(v, w int64) { m[[2]int64{x, v}] = w })
		}
		return m
	}
	edges, version, before := ov.NumEdges(), ov.Version(), view()
	batch := &graph.Delta{Version: 1}
	batch.Insert(0, g.NumVertices()-1, 1)
	plpOpt := opt
	plpOpt.Engine = EnginePLP
	badCoverage := opt
	badCoverage.MinCoverage = 2
	for _, c := range []struct {
		name  string
		ov    *graph.Overlay
		prev  *hierarchy.Dendrogram
		batch *graph.Delta
		opt   Options
	}{
		{"nil overlay", nil, dend, batch, opt},
		{"nil dendrogram", ov, nil, batch, opt},
		{"nil batch", ov, dend, nil, opt},
		{"PLP engine", ov, dend, batch, plpOpt},
		{"MinCoverage 2", ov, dend, batch, badCoverage},
	} {
		if _, err := DetectIncrementalWithContext(context.Background(), c.ov, c.prev, c.batch, c.opt, nil); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
		if ov.NumEdges() != edges || ov.Version() != version || !maps.Equal(view(), before) {
			t.Fatalf("%s: rejected call changed the overlay (%d edges at version %d, was %d at %d)",
				c.name, ov.NumEdges(), ov.Version(), edges, version)
		}
	}
}

func TestDetectIncrementalLedgerStageAndStorm(t *testing.T) {
	g := gen.CliqueChain(12, 6)
	opt := Options{Threads: 1, Ledger: obs.NewLedger()}
	ov, dend := bootstrapIncremental(t, g, opt)

	// A one-edge batch dirties at most two communities — no storm.
	small := &graph.Delta{Version: 1}
	small.Insert(0, g.NumVertices()-1, 1)
	ir, err := DetectIncrementalWithContext(context.Background(), ov, dend, small, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := opt.Ledger.Levels()
	if len(rows) == 0 || obs.StageOf(rows[0]) != obs.StageIncremental {
		t.Fatalf("first ledger row stage = %q, want %q", rows[0].Stage, obs.StageIncremental)
	}
	if rows[0].PrevCommunities == 0 || rows[0].Dissolved == 0 {
		t.Fatalf("incremental row missing seed counters: %+v", rows[0])
	}
	for _, w := range opt.Ledger.Warnings() {
		if w.Code == obs.WarnDissolveStorm {
			t.Fatalf("small batch flagged a dissolve storm: %+v", w)
		}
	}

	// A batch touching every vertex dissolves every community — storm.
	dend = ir.Dendrogram
	n := ov.NumVertices()
	storm := &graph.Delta{Version: 2}
	for v := int64(0); v+1 < n; v += 2 {
		storm.Insert(v, v+1, 1)
	}
	if _, err := DetectIncrementalWithContext(context.Background(), ov, dend, storm, opt, nil); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, w := range opt.Ledger.Warnings() {
		if w.Code == obs.WarnDissolveStorm {
			found = true
		}
	}
	if !found {
		t.Fatalf("full-churn batch did not flag %s; warnings: %+v",
			obs.WarnDissolveStorm, opt.Ledger.Warnings())
	}
}

// TestIncrementalSoak runs a 50-batch churn stream through two fully
// independent dynamic implementations — the overlay + seeded parallel engine
// on one side, seq.ApplyDelta + from-scratch sequential detection on the
// other — and asserts after every batch that (a) the two graph states are
// identical edge-for-edge and (b) the incremental modularity stays within
// engineTolerance of the oracle's.
func TestIncrementalSoak(t *testing.T) {
	g := gen.CliqueChain(24, 8)
	batches, err := gen.Deltas(g, gen.DeltaConfig{
		Batches: 50, BatchSize: 10, DeleteFrac: 0.45, MaxWeight: 3, Seed: 1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Threads: 2}
	ov, dend := bootstrapIncremental(t, g, opt)
	oracleG := g
	s := NewScratch()
	for i, batch := range batches {
		ir, err := DetectIncrementalWithContext(context.Background(), ov, dend, batch, opt, s)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		dend = ir.Dendrogram
		var oracle *seq.Result
		oracleG, oracle, err = seq.Redetect(oracleG, batch, seq.Options{})
		if err != nil {
			t.Fatalf("batch %d oracle: %v", i, err)
		}
		assertSameGraph(t, i, ir.Graph, oracleG)
		if ir.FinalModularity < oracle.Modularity-engineTolerance {
			t.Fatalf("batch %d: incremental modularity %.4f below oracle %.4f - %v",
				i, ir.FinalModularity, oracle.Modularity, engineTolerance)
		}
	}
}

// assertSameGraph compares two graphs as weighted edge multisets plus
// self-loop arrays, independent of storage order.
func assertSameGraph(t *testing.T, round int, a, b *graph.Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("round %d: shape (%d,%d) vs (%d,%d)", round,
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	collect := func(g *graph.Graph) map[[2]int64]int64 {
		m := map[[2]int64]int64{}
		g.ForEachEdge(func(_ int64, u, v, w int64) {
			first, second := graph.StoredOrder(u, v)
			m[[2]int64{first, second}] += w
		})
		return m
	}
	am, bm := collect(a), collect(b)
	if len(am) != len(bm) {
		t.Fatalf("round %d: %d distinct edges vs %d", round, len(am), len(bm))
	}
	for k, w := range am {
		if bm[k] != w {
			t.Fatalf("round %d: edge {%d,%d} weight %d vs %d", round, k[0], k[1], w, bm[k])
		}
	}
	for x := int64(0); x < a.NumVertices(); x++ {
		if a.Self[x] != b.Self[x] {
			t.Fatalf("round %d: self-loop at %d: %d vs %d", round, x, a.Self[x], b.Self[x])
		}
	}
}

// TestIncrementalSteadyStateAllocs pins the zero-alloc invariant for the
// serving loop: batch after batch through one warm arena, the whole
// ApplyDelta → Compact → seeded-detect chain must stay at a small constant
// allocation count (the Result envelope, the chaining dendrogram, and the
// overlay's map traffic), not O(n) or O(phases). It runs both seed-stage
// branches: without a stop rule (the stage contracts the seed at once) and
// with a coverage rule (the stage measures the seed by its sweep).
func TestIncrementalSteadyStateAllocs(t *testing.T) {
	for _, minCov := range []float64{0, 0.5} {
		t.Run(fmt.Sprintf("mincov=%v", minCov), func(t *testing.T) {
			g := gen.CliqueChain(32, 8)
			opt := Options{Threads: 1, DiscardLevels: true, MinCoverage: minCov}
			ov, dend := bootstrapIncremental(t, g, opt)
			s := NewScratch()
			r := par.NewRNG(3)
			version := uint64(0)
			run := func() {
				version++
				n := ov.NumVertices()
				batch := &graph.Delta{Version: version}
				for i := 0; i < 8; i++ {
					batch.Insert(r.Int63n(n), r.Int63n(n), 1)
					batch.Delete(r.Int63n(n), r.Int63n(n))
				}
				ir, err := DetectIncrementalWithContext(context.Background(), ov, dend, batch, opt, s)
				if err != nil {
					t.Fatal(err)
				}
				dend = ir.Dendrogram
			}
			for i := 0; i < 10; i++ {
				run() // warm the arena, the overlay freelists, and the spare graphs
			}
			allocs := testing.AllocsPerRun(10, run)
			t.Logf("%.1f allocs per batch", allocs)
			if allocs > 48 {
				t.Fatalf("steady-state incremental run allocates %.1f times, want a small constant", allocs)
			}
		})
	}
}

// seedReference is the seeded run as the seed contraction used to do it,
// built independently of the engine: the previous partition with every
// community incident to batch dissolved (clean communities renumbered
// densely in order, dissolved vertices numbered after them in vertex order),
// g contracted by it with contract.ByMapping, and a from-scratch detection
// of the contracted graph composed back onto the vertices.
type seedReference struct {
	comm       []int64 // vertex → community
	k          int64
	levels     [][]int64
	sizes      []int64
	term       Termination
	cov, mod   float64
	seedCov    float64 // the seed partition's coverage and modularity
	seedMod    float64
	dirty      int64 // dissolved previous communities
	singletons int64 // vertices they released
}

func referenceSeeded(t *testing.T, g *graph.Graph, prev []int64, prevK int64, batch *graph.Delta, opt Options) seedReference {
	t.Helper()
	n := g.NumVertices()
	dirty := make([]bool, prevK)
	for _, up := range batch.Updates {
		dirty[prev[up.U]], dirty[prev[up.V]] = true, true
	}
	ids := make([]int64, prevK)
	var k, nd int64
	for c := range ids {
		if dirty[c] {
			nd++
			continue
		}
		ids[c] = k
		k++
	}
	seed := make([]int64, n)
	for v := range seed {
		if dirty[prev[v]] {
			seed[v] = k
			k++
		} else {
			seed[v] = ids[prev[v]]
		}
	}
	ref := seedReference{dirty: nd, singletons: k - (prevK - nd), levels: [][]int64{seed}}
	ec := exec.Background(1)
	ng := contract.ByMapping(ec, g, seed, k, contract.Contiguous)
	totW := ng.TotalWeight(1)
	ref.seedCov = coverage(ec, ng, totW)
	ref.seedMod = modularity(ec, ref.seedCov, ng.WeightedDegrees(1), totW)
	if opt.MaxPhases == 1 {
		// The seed stage is phase 0: nothing more runs.
		ref.k, ref.term, ref.cov, ref.mod = k, TermMaxPhases, ref.seedCov, ref.seedMod
		ref.comm = seed
	} else {
		// The seed stage is phase 0, so the contracted graph's own run
		// gets one phase less.
		ropt := opt
		ropt.Threads, ropt.Validate = 1, false
		if opt.MaxPhases > 1 {
			ropt.MaxPhases = opt.MaxPhases - 1
		}
		inner, err := DetectContext(context.Background(), ng, ropt)
		if err != nil {
			t.Fatal(err)
		}
		ref.k, ref.term, ref.cov, ref.mod = inner.NumCommunities, inner.Termination, inner.FinalCoverage, inner.FinalModularity
		ref.levels = append(ref.levels, inner.Levels...)
		ref.comm = make([]int64, n)
		for v, c := range seed {
			ref.comm[v] = inner.CommunityOf[c]
		}
	}
	ref.sizes = make([]int64, ref.k)
	for _, c := range ref.comm {
		ref.sizes[c]++
	}
	return ref
}

// TestIncrementalSeedStageMatchesReference drives R-MAT and LJSim churn
// chains through the seeded engine at 1, 2 and 4 threads, on one arena
// reused across the chain and with no arena passed (noscratch=true: a nil
// Scratch, so every batch runs on a new arena), in every branch of the seed stage: a stop rule the seed already
// meets (MinCoverage below its coverage, or MaxPhases 1: no contraction
// runs), a MinCoverage above it (the sweep measures the seed, then the first
// level contracts it and matching runs), and no stop rule that could fire
// on the seed (MinCoverage 0: the stage contracts at once and measures the
// seed graph). Every batch must reproduce the contracting reference:
// partition, levels, sizes, community count and termination exactly,
// coverage exactly, modularity within 1e-12; and the stage itself may build
// the seed graph only in the last branch or under Validate.
func TestIncrementalSeedStageMatchesReference(t *testing.T) {
	rmat, _, err := gen.ConnectedRMAT(2, gen.DefaultRMAT(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	lj, _, err := gen.LJSim(2, gen.DefaultLJSim(2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	type mode struct {
		name string
		// opt picks the options of one batch from the seed's coverage.
		opt   func(seedCov float64) Options
		stops bool // the seed stage ends every run
	}
	modes := []mode{
		{"stop", func(c float64) Options { return Options{MinCoverage: c * 0.9} }, true},
		{"max-phases", func(float64) Options { return Options{MaxPhases: 1} }, true},
		{"match", func(c float64) Options { return Options{MinCoverage: c + (1-c)/2} }, false},
		{"no-stop-rule", func(float64) Options { return Options{} }, false},
	}
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat", rmat}, {"ljsim", lj}} {
		batches, err := gen.Deltas(gc.g, gen.DeltaConfig{
			Batches: 6, BatchSize: int(gc.g.NumEdges() / 100), DeleteFrac: 0.5, MaxWeight: 3, Hubs: 32, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range modes {
			for _, threads := range []int{1, 2, 4} {
				for _, noScratch := range []bool{false, true} {
					name := fmt.Sprintf("%s/%s/p%d/noscratch=%v", gc.name, m.name, threads, noScratch)
					t.Run(name, func(t *testing.T) {
						checkSeedChain(t, gc.g, batches, threads, noScratch, m.opt, m.stops)
					})
				}
			}
		}
	}
}

func checkSeedChain(t *testing.T, g *graph.Graph, batches []*graph.Delta, threads int, noScratch bool, pick func(float64) Options, stops bool) {
	boot, err := DetectContext(context.Background(), g, Options{Threads: 1, MinCoverage: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	dend, err := hierarchy.FromFinal(g.NumVertices(), boot.CommunityOf, boot.NumCommunities)
	if err != nil {
		t.Fatal(err)
	}
	ov := graph.NewOverlay(threads, g)
	refComm, refK := boot.CommunityOf, boot.NumCommunities
	var s *Scratch
	if !noScratch {
		s = NewScratch()
	}
	matched := 0 // batches that contracted past the seed
	for i, batch := range batches {
		// The seed's coverage is known only after the batch is applied, so
		// a shadow overlay over the current graph measures it first.
		sh := graph.NewOverlay(1, ov.Base().Clone())
		if err := sh.ApplyDelta(batch); err != nil {
			t.Fatal(err)
		}
		next, err := sh.Compact()
		if err != nil {
			t.Fatal(err)
		}
		probe := referenceSeeded(t, next, refComm, refK, batch, Options{MaxPhases: 1})
		opt := pick(probe.seedCov)
		opt.Threads = threads
		opt.Validate = threads == 2
		ref := referenceSeeded(t, next, refComm, refK, batch, opt)
		opt.Ledger = obs.NewLedger()

		ir, err := DetectIncrementalWithContext(context.Background(), ov, dend, batch, opt, s)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if len(ir.Levels) > 1 {
			matched++
		}
		if ir.NumCommunities != ref.k || ir.Termination != ref.term {
			t.Fatalf("batch %d: %d communities (%s), reference %d (%s)", i, ir.NumCommunities, ir.Termination, ref.k, ref.term)
		}
		if ir.DirtyCommunities != ref.dirty || ir.DissolvedVertices != ref.singletons {
			t.Fatalf("batch %d: dissolved %d communities / %d vertices, reference %d / %d",
				i, ir.DirtyCommunities, ir.DissolvedVertices, ref.dirty, ref.singletons)
		}
		if err := equalInt64s(ir.CommunityOf, ref.comm); err != nil {
			t.Fatalf("batch %d: CommunityOf: %v", i, err)
		}
		if err := equalInt64s(ir.Sizes, ref.sizes); err != nil {
			t.Fatalf("batch %d: Sizes: %v", i, err)
		}
		if len(ir.Levels) != len(ref.levels) {
			t.Fatalf("batch %d: %d levels, reference %d", i, len(ir.Levels), len(ref.levels))
		}
		for l := range ref.levels {
			if err := equalInt64s(ir.Levels[l], ref.levels[l]); err != nil {
				t.Fatalf("batch %d level %d: %v", i, l, err)
			}
		}
		if ir.FinalCoverage != ref.cov {
			t.Fatalf("batch %d: coverage %v, reference %v", i, ir.FinalCoverage, ref.cov)
		}
		if math.Abs(ir.FinalModularity-ref.mod) > 1e-12 {
			t.Fatalf("batch %d: modularity %v, reference %v", i, ir.FinalModularity, ref.mod)
		}
		if st := ir.Stats[0]; st.Coverage != ref.seedCov || math.Abs(st.Modularity-ref.seedMod) > 1e-12 {
			t.Fatalf("batch %d: seed row coverage %v modularity %v, reference %v %v",
				i, st.Coverage, st.Modularity, ref.seedCov, ref.seedMod)
		}
		// The stage builds the seed graph itself only when no stop rule
		// can fire on the seed (or to validate the sweep against it).
		built := opt.Ledger.Levels()[0].OutEdges > 0
		if want := opt.Validate || opt.MaxPhases != 1 && opt.MinCoverage == 0; built != want {
			t.Fatalf("batch %d: seed stage built the seed graph: %v, want %v", i, built, want)
		}
		dend = ir.Dendrogram
		refComm, refK = ref.comm, ref.k
	}
	if stops && matched > 0 || !stops && matched == 0 {
		t.Fatalf("%d of %d batches contracted past the seed stage", matched, len(batches))
	}
}

// equalInt64s reports the first difference between two slices.
func equalInt64s(got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("entry %d is %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}
