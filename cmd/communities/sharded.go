package main

// The -shards path: open the graph as a CSR view (zero-copy when the input
// is an mmapcsr file), run core.DetectSharded, and render the per-shard and
// stitch summaries. It deliberately shares loadGraph and the observability
// flags with the single-image path but not its result plumbing — a
// ShardResult is not a *core.Result, and the extensions that need one
// (-updates, -refine, -compare, -json) are rejected in main. -ledger works:
// the sharded path assembles its manifest directly from the ShardResult,
// with Options.Shards set so the doctor baselines sharded runs apart from
// single-image ones, and gets the same end-of-run verdict.

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/report"
)

// shardedRun carries the flag values the sharded path consumes.
type shardedRun struct {
	inPath, format, genName string
	scale                   int
	n                       int64
	seed                    uint64
	threads, shards         int
	outPath, traceOut       string
	ledgerPath              string
	doctorOn                bool
	stats, convergence      bool
	verbose                 bool
}

func runSharded(ctx context.Context, sr shardedRun, opt core.Options, rec *obs.Recorder, led *obs.Ledger, prof *obs.Profiler) {
	csr, inputEdges, totW, source, cleanup, err := loadShardCSR(sr)
	if err != nil {
		fatal(err)
	}
	defer cleanup()
	fmt.Printf("graph: |V|=%d |E|=%d total weight=%d (%s)\n",
		csr.NumVertices(), inputEdges, totW, source)

	start := time.Now()
	res, err := core.DetectSharded(ctx, csr, core.ShardOptions{Shards: sr.shards, Opt: opt})
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	if sr.verbose {
		for _, st := range res.Shards {
			fmt.Printf("shard %2d: vertices [%d,%d)  |V|=%d |E|=%d cut=%d  ->  %d communities (%d edges)  load %.2fx  %v\n",
				st.Shard, st.FirstVertex, st.LastVertex, st.Vertices, st.Edges, st.CutEdges,
				st.Communities, st.CommunityEdges, st.Imbalance, st.Detect.Round(time.Millisecond))
		}
		fmt.Printf("stitch: quotient |V|=%d |E|=%d (%d cut edges)  ->  %d communities in %d phases\n",
			res.QuotientVertices, res.QuotientEdges, res.CutEdges,
			res.NumCommunities, len(res.Stitch.Stats))
	}
	if sr.stats {
		if err := harness.RenderPhaseTable(os.Stderr, res.Stitch.Stats); err != nil {
			fatal(err)
		}
		if lats := rec.Latencies(); len(lats) > 0 {
			if err := harness.RenderLatencyTable(os.Stderr, lats); err != nil {
				fatal(err)
			}
		}
	}
	if sr.convergence {
		if err := harness.RenderConvergenceTable(os.Stderr, led.Levels(), led.Warnings()); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("sharded detection: %d communities in %v (%d shards, %d cut edges, stitch terminated by %s)\n",
		res.NumCommunities, elapsed.Round(time.Millisecond), len(res.Shards), res.CutEdges, res.Stitch.Termination)
	fmt.Printf("rate: %.3g input edges/second\n", float64(inputEdges)/elapsed.Seconds())
	fmt.Printf("quality: modularity %.4f coverage %.4f\n", res.FinalModularity, res.FinalCoverage)

	if sr.ledgerPath != "" {
		m := report.NewManifest("run", report.GraphInfo{
			Name:     runName(sr.inPath, sr.genName),
			Vertices: csr.NumVertices(), Edges: inputEdges, Weight: totW,
		}, opt, rec, led)
		// The fan-out is part of the doctor's baseline key, so sharded runs
		// are compared only with sharded runs.
		m.Options.Shards = sr.shards
		m.Summary = &report.Summary{
			Communities: res.NumCommunities,
			Coverage:    res.FinalCoverage,
			Modularity:  res.FinalModularity,
			Termination: string(res.Stitch.Termination),
			TotalSec:    elapsed.Seconds(),
			EdgesPerSec: float64(inputEdges) / elapsed.Seconds(),
		}
		if sr.doctorOn {
			printVerdict(harness.RunDoctor(m, harness.DoctorConfig{
				LedgerPath: sr.ledgerPath, Profiler: prof, Ledger: led,
			}))
		}
		if err := report.AppendManifest(sr.ledgerPath, m); err != nil {
			fatal(err)
		}
		fmt.Printf("appended run manifest to %s\n", sr.ledgerPath)
	}

	if sr.outPath != "" {
		f, err := os.Create(sr.outPath)
		if err != nil {
			fatal(err)
		}
		if err := graphio.WriteCommunities(f, res.CommunityOf); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d assignments (%d communities) to %s\n",
			len(res.CommunityOf), res.NumCommunities, sr.outPath)
	}
	if sr.traceOut != "" {
		f, err := os.Create(sr.traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Chrome trace to %s (load in chrome://tracing or ui.perfetto.dev)\n", sr.traceOut)
	}
}

// loadShardCSR opens the detection input as a CSR view. An mmapcsr file maps
// zero-copy (rows are stored neighbor-sorted, and random access is the shard
// extraction pattern); every other source goes through loadGraph and is
// converted, with rows sorted by neighbor id like the mapped format's, so
// the sharded result does not depend on the input's bucket layout.
func loadShardCSR(sr shardedRun) (csr *graph.CSR, edges, totW int64, source string, cleanup func(), err error) {
	cleanup = func() {}
	if sr.format == "mmapcsr" && sr.inPath != "" {
		mp, err := graphio.OpenMapped(sr.inPath)
		if err != nil {
			return nil, 0, 0, "", cleanup, err
		}
		mp.Advise(graphio.AdviseRandom)
		source = "mmapcsr, decoded"
		if mp.MmapBacked() {
			source = "mmapcsr, zero-copy"
		}
		return mp.CSR(), mp.NumEdges(), mp.TotalWeight(), source, func() { mp.Close() }, nil
	}
	g, err := loadGraph(sr.inPath, sr.format, sr.genName, sr.scale, sr.n, sr.seed, sr.threads)
	if err != nil {
		return nil, 0, 0, "", cleanup, err
	}
	c := graph.ToCSR(sr.threads, g)
	graph.SortCSRRows(sr.threads, c)
	return c, g.NumEdges(), g.TotalWeight(sr.threads), "materialized", cleanup, nil
}
