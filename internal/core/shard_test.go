package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/contract"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/par"
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

// TestShardRejectsHostileCSR feeds views with one row defect each — the
// content NewCSRView's O(n) open does not check — to DetectSharded at
// several shard counts and to FromCSR. Every defect must come back as an
// error: no index panic in the quotient fill, no silently dropped or
// accumulated entry.
func TestShardRejectsHostileCSR(t *testing.T) {
	cases := map[string]func(adj, wgt, self []int64){
		"valid":         func(adj, wgt, self []int64) {},
		"out-of-range":  func(adj, wgt, self []int64) { adj[7] = 9 },
		"negative":      func(adj, wgt, self []int64) { adj[6] = -1 },
		"self-entry":    func(adj, wgt, self []int64) { adj[7] = 3 },
		"duplicate":     func(adj, wgt, self []int64) { adj[6] = 2 },
		"descending":    func(adj, wgt, self []int64) { adj[6], adj[7] = 2, 0 },
		"zero-weight":   func(adj, wgt, self []int64) { wgt[7] = 0 },
		"negative-self": func(adj, wgt, self []int64) { self[3] = -1 },
	}
	for name, mutate := range cases {
		// The 4-cycle 0-1-2-3 with a self-loop on 2, rows sorted, every
		// edge stored twice; each defect sits in the last row.
		offsets := []int64{0, 2, 4, 6, 8}
		adj := []int64{1, 3, 0, 2, 1, 3, 0, 2}
		wgt := []int64{1, 4, 1, 2, 2, 3, 4, 3}
		self := []int64{0, 0, 7, 0}
		mutate(adj, wgt, self)
		c, err := graph.NewCSRView(offsets, adj, wgt, self)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := name == "valid"
		for _, shards := range []int{1, 2, 4} {
			res, err := DetectSharded(context.Background(), c, ShardOptions{
				Shards: shards,
				Opt:    Options{Threads: 2, Engine: EngineMatching},
			})
			if (err == nil) != want {
				t.Errorf("%s shards=%d: err = %v", name, shards, err)
			}
			if err == nil {
				validatePartition(t, res.CommunityOf, res.NumCommunities)
			}
		}
		if _, err := graph.FromCSR(1, c); (err == nil) != want {
			t.Errorf("%s: FromCSR err = %v", name, err)
		}
	}
}

// TestShardFinalGraphMatchesRebuild pins that each shard's community graph,
// taken from its arena as the engine's final level, yields the same quotient
// as contracting the shard's subgraph again by its partition.
func TestShardFinalGraphMatchesRebuild(t *testing.T) {
	rmat, _, err := gen.ConnectedRMAT(2, gen.DefaultRMAT(12, 77))
	if err != nil {
		t.Fatal(err)
	}
	lj, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat", rmat}, {"lj", lj}} {
		c := shardCSR(tc.g)
		n := c.NumVertices()
		rowStart, rowEnd := c.RowBounds()
		for _, engine := range []Engine{EngineMatching, EngineEnsemble} {
			for _, shards := range []int{1, 2, 3, 4, 7} {
				pt := &par.Partition{}
				pt.BuildBuckets(nil, shards, int(n), rowStart, rowEnd)
				locals := make([]shardLocal, pt.Workers())
				for k := range locals {
					lo, hi := pt.Range(k)
					locals[k] = detectShard(context.Background(), c, int64(lo), int64(hi), k, 2, Options{Engine: engine})
					if err := locals[k].err; err != nil {
						t.Fatal(err)
					}
				}
				reused, _, _, err := quotient(2, n, pt, locals)
				if err != nil {
					t.Fatal(err)
				}
				for k := range locals {
					lo, hi := pt.Range(k)
					sg, _, err := graph.InducedFromCSR(c, int64(lo), int64(hi))
					if err != nil {
						t.Fatal(err)
					}
					l := &locals[k]
					l.cg = contract.ByMapping(exec.Background(2), sg, l.comm, l.k, nil, nil)
					if l.cg.NumEdges() != l.stat.CommunityEdges {
						t.Fatalf("%s %s K=%d shard %d: rebuilt community graph has %d edges, final level %d",
							tc.name, engine, shards, k, l.cg.NumEdges(), l.stat.CommunityEdges)
					}
				}
				rebuilt, _, _, err := quotient(2, n, pt, locals)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameLayout(reused, rebuilt); err != nil {
					t.Fatalf("%s %s K=%d: quotient from final levels differs from rebuild: %v", tc.name, engine, shards, err)
				}
			}
		}
	}
}

// sameLayout reports the first array in which two graphs differ, slot for
// slot.
func sameLayout(got, want *graph.Graph) error {
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("|V|=%d |E|=%d, want %d and %d", got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for _, a := range []struct {
		name      string
		got, want []int64
	}{
		{"V", got.V, want.V}, {"W", got.W, want.W},
		{"Self", got.Self, want.Self}, {"Start", got.Start, want.Start}, {"End", got.End, want.End},
	} {
		if !slices.Equal(a.got, a.want) {
			return fmt.Errorf("%s differs", a.name)
		}
	}
	return nil
}
