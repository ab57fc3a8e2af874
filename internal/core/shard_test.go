package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/seq"
)

// shardCSR builds the canonical sorted CSR image of g — the same bytes the
// mmapcsr format stores — so every sharded run in a test sees the identical
// view regardless of the conversion worker count.
func shardCSR(g *graph.Graph) *graph.CSR {
	c := graph.ToCSR(2, g)
	graph.SortCSRRows(2, c)
	return c
}

func detectSharded(t *testing.T, c *graph.CSR, shards, threads int) *ShardResult {
	t.Helper()
	res, err := DetectSharded(context.Background(), c, ShardOptions{
		Shards: shards,
		Opt:    Options{Threads: threads, Engine: EngineMatching, Validate: true},
	})
	if err != nil {
		t.Fatalf("shards=%d threads=%d: %v", shards, threads, err)
	}
	validatePartition(t, res.CommunityOf, res.NumCommunities)
	return res
}

func TestShardDeterminismGate(t *testing.T) {
	// For a fixed shard count the final partition must be identical across
	// thread budgets and repeated runs: shard boundaries depend only on the
	// degree prefix, per-shard detection is schedule-stable, and the stitch
	// runs on a deterministic quotient. Partitions across DIFFERENT shard
	// counts are not expected to match — only their quality is (gated
	// below against the sequential oracle).
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 7))
	if err != nil {
		t.Fatal(err)
	}
	c := shardCSR(g)
	for _, shards := range []int{1, 2, 4} {
		var want *ShardResult
		var wantHash uint64
		for _, threads := range []int{1, 4} {
			for run := 0; run < 2; run++ {
				res := detectSharded(t, c, shards, threads)
				h := partitionHash(res.CommunityOf)
				if want == nil {
					want, wantHash = res, h
					continue
				}
				if h != wantHash {
					for v := range want.CommunityOf {
						if res.CommunityOf[v] != want.CommunityOf[v] {
							t.Fatalf("shards=%d threads=%d run=%d: vertex %d in community %d, first run says %d",
								shards, threads, run, v, res.CommunityOf[v], want.CommunityOf[v])
						}
					}
					t.Fatalf("shards=%d threads=%d run=%d: parity hash mismatch", shards, threads, run)
				}
			}
		}
	}
}

func TestShardQualityOracle(t *testing.T) {
	// Sharding trades a bounded amount of quality for locality: on karate
	// and an R-MAT component, every shard count must land within
	// engineTolerance of the sequential oracle's modularity, and the
	// reported global metrics must equal the metrics of the final partition
	// evaluated on the original graph (the quotient preserves weights).
	karate := gen.Karate()
	rmat, _, err := gen.ConnectedRMAT(0, gen.DefaultRMAT(12, 12345))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"karate", karate}, {"rmat-12", rmat}} {
		sq := seq.Detect(tc.g, seq.Options{})
		c := shardCSR(tc.g)
		for _, shards := range []int{1, 2, 4} {
			res := detectSharded(t, c, shards, 2)
			if res.FinalModularity < sq.Modularity-engineTolerance {
				t.Errorf("%s shards=%d: modularity %.4f below seq oracle %.4f - %.2f",
					tc.name, shards, res.FinalModularity, sq.Modularity, engineTolerance)
			}
			direct := metrics.Modularity(2, tc.g, res.CommunityOf, res.NumCommunities)
			if diff := res.FinalModularity - direct; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s shards=%d: reported modularity %.9f != direct evaluation %.9f",
					tc.name, shards, res.FinalModularity, direct)
			}
			cov := metrics.Coverage(2, tc.g, res.CommunityOf, res.NumCommunities)
			if diff := res.FinalCoverage - cov; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%s shards=%d: reported coverage %.9f != direct evaluation %.9f",
					tc.name, shards, res.FinalCoverage, cov)
			}
		}
	}
}

func TestShardSingleShardMatchesQuality(t *testing.T) {
	// K=1 runs the whole graph through one engine pass plus a stitch over
	// its community graph — effectively extra agglomeration phases, so the
	// modularity must be at least the plain engine's minus tolerance (in
	// practice it is equal or better).
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(2000, 3))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := DetectContext(context.Background(), g, Options{Threads: 2, Engine: EngineMatching, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	res := detectSharded(t, shardCSR(g), 1, 2)
	if len(res.Shards) != 1 {
		t.Fatalf("%d shard stats for K=1", len(res.Shards))
	}
	if res.CutEdges != 0 {
		t.Fatalf("K=1 recorded %d cut edges", res.CutEdges)
	}
	if res.FinalModularity < plain.FinalModularity-engineTolerance {
		t.Errorf("K=1 modularity %.4f below plain detect %.4f - %.2f",
			res.FinalModularity, plain.FinalModularity, engineTolerance)
	}
}

func TestShardDendrogramAndStats(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(2500, 13))
	if err != nil {
		t.Fatal(err)
	}
	c := shardCSR(g)
	led := obs.NewLedger()
	res, err := DetectSharded(context.Background(), c, ShardOptions{
		Shards: 4,
		Opt:    Options{Threads: 2, Engine: EngineMatching, Validate: true, Ledger: led},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The dendrogram's flattened leaf assignment must equal CommunityOf.
	final, k := res.Dendrogram.Final()
	if k != res.NumCommunities {
		t.Fatalf("dendrogram %d communities, result %d", k, res.NumCommunities)
	}
	for v := range final {
		if final[v] != res.CommunityOf[v] {
			t.Fatalf("dendrogram assigns vertex %d to %d, result to %d", v, final[v], res.CommunityOf[v])
		}
	}
	// Shard stats: contiguous ranges covering [0, n), cut edges consistent.
	var cut, prevEnd int64
	for i, st := range res.Shards {
		if st.FirstVertex != prevEnd {
			t.Fatalf("shard %d starts at %d, want %d", i, st.FirstVertex, prevEnd)
		}
		if st.Vertices != st.LastVertex-st.FirstVertex {
			t.Fatalf("shard %d vertex count %d for range [%d,%d)", i, st.Vertices, st.FirstVertex, st.LastVertex)
		}
		prevEnd = st.LastVertex
		cut += st.CutEdges
	}
	if prevEnd != g.NumVertices() {
		t.Fatalf("shards cover [0,%d), graph has %d vertices", prevEnd, g.NumVertices())
	}
	if cut != res.CutEdges {
		t.Fatalf("shard cut edges sum to %d, result says %d", cut, res.CutEdges)
	}
	// Ledger: one StageShard row per shard plus a StageStitch summary.
	rows := led.Levels()
	var shardRows, stitchRows int
	for _, r := range rows {
		switch obs.StageOf(r) {
		case obs.StageShard:
			shardRows++
		case obs.StageStitch:
			stitchRows++
			if r.Metric != res.FinalModularity || r.CutEdges != res.CutEdges {
				t.Fatalf("stitch row %+v inconsistent with result", r)
			}
		}
	}
	if shardRows != len(res.Shards) || stitchRows != 1 {
		t.Fatalf("%d shard rows, %d stitch rows; want %d and 1", shardRows, stitchRows, len(res.Shards))
	}
}

func TestShardDegenerateInputs(t *testing.T) {
	// More shards than vertices must clamp, not crash; a nil CSR and an
	// empty graph must error.
	g := gen.CliqueChain(2, 3)
	res := detectSharded(t, shardCSR(g), 64, 2)
	if len(res.Shards) > int(g.NumVertices()) {
		t.Fatalf("%d shards for %d vertices", len(res.Shards), g.NumVertices())
	}
	if _, err := DetectSharded(context.Background(), nil, ShardOptions{Shards: 2, Opt: Options{Engine: EngineMatching}}); err == nil {
		t.Fatal("accepted nil CSR")
	}
	empty := &graph.CSR{Offsets: []int64{0}, Self: []int64{}}
	if _, err := DetectSharded(context.Background(), empty, ShardOptions{Shards: 2, Opt: Options{Engine: EngineMatching}}); err == nil {
		t.Fatal("accepted empty graph")
	}
}
