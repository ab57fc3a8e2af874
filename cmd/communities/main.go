// Command communities runs parallel agglomerative community detection on a
// graph loaded from a file or produced by one of the built-in generators,
// prints per-phase statistics and the final quality summary, and optionally
// writes the vertex→community assignment.
//
// Examples:
//
//	communities -gen rmat -scale 16 -threads 8
//	communities -gen lj -n 100000 -coverage 0.5 -refine
//	communities -in soc-LiveJournal1.txt -format edgelist -out comm.txt
//	communities -gen web -n 200000 -scorer conductance -kernels edgesweep,listchase
//	communities -gen rmat -scale 14 -updates churn.cdgu
//	communities -in rmat-27.mmapcsr -format mmapcsr -shards 4
//
// The last form is the out-of-core pipeline (DESIGN.md §15): the graph is
// memory-mapped rather than loaded, split into -shards edge-balanced vertex
// shards detected in parallel, and the boundary communities stitched with
// one agglomeration pass over the quotient graph of cut edges.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/harness"
	"repro/internal/hierarchy"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/refine"
	"repro/internal/report"
	"repro/internal/scoring"
)

func main() {
	var (
		inPath = flag.String("in", "", "input graph file (use -gen instead to generate)")
		format = flag.String("format", "edgelist", "input format: edgelist | binary | mmapcsr")
		shards = flag.Int("shards", 0,
			"split the graph into this many vertex shards, detect them in parallel, and stitch across the boundary (0 = single-image detection)")
		genName = flag.String("gen", "", "generator: rmat | lj | web | karate | cliquechain")
		scale   = flag.Int("scale", 16, "R-MAT scale (2^scale vertices)")
		n       = flag.Int64("n", 100_000, "vertex count for lj/web generators")
		seed    = flag.Uint64("seed", 1, "generator seed")

		threads   = flag.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
		engineArg = flag.String("engine", "matching", "detection engine: matching | plp | ensemble")
		plpSweeps = flag.Int("plp-sweeps", 0, "PLP sweep bound for plp/ensemble (0 = engine default)")
		scorerArg = flag.String("scorer", "modularity", "edge scorer: modularity | conductance")
		kernels   = flag.String("kernels", "worklist,bucket",
			"matching,contraction kernels: worklist|edgesweep , bucket|bucket-noncontig|listchase")
		coverage = flag.Float64("coverage", 0, "terminate at this coverage (0 = run to local max)")
		maxPhase = flag.Int("max-phases", 0, "phase cap (0 = unlimited)")
		minComm  = flag.Int64("min-communities", 0, "community floor (0 = none)")
		doRefine = flag.Bool("refine", false, "run the vertex-move refinement extension afterwards")
		refinePh = flag.Bool("refine-phases", false, "refine after every contraction phase (slower, better quality)")
		maxSize  = flag.Int64("max-size", 0, "forbid communities larger than this many vertices (0 = none)")
		compare  = flag.Bool("compare", false, "also run the sequential CNM and Louvain baselines")
		updates  = flag.String("updates", "",
			"after the initial detection, replay this cdgu edge-update stream (see genrmat -deltas) with incremental re-detection per batch")
		outPath  = flag.String("out", "", "write vertex→community assignment to this file")
		jsonPath = flag.String("json", "", "write a machine-readable JSON run report to this file")
		verbose  = flag.Bool("v", false, "print per-phase statistics")
		validate = flag.Bool("validate", false, "run invariant checks every phase (slow; debugging)")

		stats       = flag.Bool("stats", false, "print the per-phase kernel breakdown table to stderr")
		convergence = flag.Bool("convergence", false, "print the per-level convergence table to stderr")
		ledgerPath  = flag.String("ledger", "", "append a self-contained JSON run manifest to this file (e.g. results/ledger.jsonl)")
		doctorOn    = flag.Bool("doctor", true, "with -ledger: assess the run against the archive's learned baseline (verdict in the manifest, drift warnings, auto profile capture on anomaly)")
		profileDir  = flag.String("profile.dir", obs.DefaultProfileDir, "archive triggered pprof captures under this directory")
		traceOut    = flag.String("trace.out", "", "write a Chrome trace_event timeline of the run to this file")
		metricsAddr = flag.String("metrics.addr", "", "serve live detection metrics over HTTP on this address (e.g. localhost:6070)")
		logLevel    = flag.String("log.level", "info", "diagnostic log level: debug | info | warn | error")
		logFormat   = flag.String("log.format", "text", "diagnostic log format: text | json")
	)
	flag.Parse()

	logger, err := obs.NewLogger(*logLevel, *logFormat, os.Stderr)
	if err != nil {
		fatal(err) // slog default still points at a usable text handler
	}
	slog.SetDefault(logger)

	// SIGQUIT dumps the flight-recorder black box under results/ before the
	// default goroutine-dump crash proceeds.
	stopQuit := obs.FlightOnSIGQUIT("results")
	defer stopQuit()

	opt := core.Options{
		Threads:          *threads,
		MinCoverage:      *coverage,
		MaxPhases:        *maxPhase,
		MinCommunities:   *minComm,
		MaxCommunitySize: *maxSize,
		RefineEveryPhase: *refinePh,
		Validate:         *validate,
	}
	eng, err := core.ParseEngine(*engineArg)
	if err != nil {
		fatal(err)
	}
	opt.Engine = eng
	opt.PLPMaxSweeps = *plpSweeps
	switch *scorerArg {
	case "modularity":
		opt.Scorer = scoring.Modularity{}
	case "conductance":
		opt.Scorer = scoring.Conductance{}
	default:
		fatal(fmt.Errorf("unknown scorer %q", *scorerArg))
	}
	if err := parseKernels(*kernels, &opt); err != nil {
		fatal(err)
	}

	// Any observability sink turns on the recorder (and ledger); nil sinks
	// keep the engine on its zero-overhead path.
	var rec *obs.Recorder
	if *traceOut != "" || *metricsAddr != "" || *jsonPath != "" || *ledgerPath != "" || *stats {
		rec = obs.New()
		rec.SetFlight(obs.Flight())
		opt.Recorder = rec
	}
	var led *obs.Ledger
	if *convergence || *ledgerPath != "" || *metricsAddr != "" || *jsonPath != "" {
		led = obs.NewLedger()
		led.SetLogger(logger)
		opt.Ledger = led
	}
	// The triggered profiler rides with the recorder: ledger warnings start
	// rate-limited CPU windows mid-run, and an anomalous doctor verdict
	// archives heap + CPU evidence under -profile.dir.
	var prof *obs.Profiler
	if rec != nil {
		prof = obs.NewProfiler(obs.ProfilerOptions{Dir: *profileDir})
		led.SetProfiler(prof)
	}
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, rec, led)
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		logger.Info("serving live metrics",
			"url", fmt.Sprintf("http://%s/metrics/prom", srv.Addr()),
			"flight", "/debug/flight", "pprof", "/debug/pprof/")
	}

	// SIGINT cancels the detection at the next phase or kernel boundary; the
	// partial hierarchy is still summarized and every requested artifact
	// (assignment, JSON report, trace) is flushed before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *shards > 0 {
		// Sharded detection works on a CSR view (mmap-backed for -format
		// mmapcsr) and produces a ShardResult; the single-image extensions
		// below all need the in-memory graph plus a *core.Result, so they are
		// rejected rather than silently skipped.
		if *updates != "" || *compare || *doRefine || *refinePh {
			fatal(fmt.Errorf("-shards is incompatible with -updates, -compare, -refine and -refine-phases"))
		}
		if *jsonPath != "" {
			fatal(fmt.Errorf("-json is not supported with -shards; use -stats, -convergence, -ledger, -out or -trace.out"))
		}
		runSharded(ctx, shardedRun{
			inPath: *inPath, format: *format, genName: *genName,
			scale: *scale, n: *n, seed: *seed,
			threads: *threads, shards: *shards,
			outPath: *outPath, traceOut: *traceOut,
			ledgerPath: *ledgerPath, doctorOn: *doctorOn,
			stats: *stats, convergence: *convergence, verbose: *verbose,
		}, opt, rec, led, prof)
		return
	}

	g, err := loadGraph(*inPath, *format, *genName, *scale, *n, *seed, *threads)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: |V|=%d |E|=%d total weight=%d\n",
		g.NumVertices(), g.NumEdges(), g.TotalWeight(*threads))

	// A panic mid-detection must not lose the observability already gathered:
	// flush the flight-recorder black box, the partial trace, the convergence
	// table, and a "partial" manifest, then re-panic so the crash (stack,
	// exit code) is unchanged.
	graphInfo := report.Info(runName(*inPath, *genName), g)
	defer func() {
		if r := recover(); r != nil {
			harness.FlushCrash("partial", harness.CrashArtifacts{
				Rec: rec, Led: led,
				TraceOut: *traceOut, Convergence: *convergence, LedgerPath: *ledgerPath,
				Graph: graphInfo, Options: opt, Log: logger,
			})
			panic(r)
		}
	}()

	start := time.Now()
	res, err := core.DetectContext(ctx, g, opt)
	canceled := err != nil && errors.Is(err, context.Canceled) && res != nil
	if err != nil && !canceled {
		fatal(err)
	}
	elapsed := time.Since(start)
	if canceled {
		stop() // a second SIGINT kills the process the default way
		slog.Warn("interrupted; reporting partial result", "phases", len(res.Stats))
	}

	if *stats {
		if err := harness.RenderPhaseTable(os.Stderr, res.Stats); err != nil {
			fatal(err)
		}
		if lats := rec.Latencies(); len(lats) > 0 {
			if err := harness.RenderLatencyTable(os.Stderr, lats); err != nil {
				fatal(err)
			}
		}
	}
	if *convergence {
		if err := harness.RenderConvergenceTable(os.Stderr, led.Levels(), led.Warnings()); err != nil {
			fatal(err)
		}
	}
	if *verbose {
		fmt.Println("phase  vertices      edges   coverage  modularity  pairs  score(ms)  match(ms)  contract(ms)")
		for _, st := range res.Stats {
			fmt.Printf("%5d  %8d  %9d     %6.4f      %6.4f  %5d  %9.2f  %9.2f  %12.2f\n",
				st.Phase, st.Vertices, st.Edges, st.Coverage, st.Modularity, st.MatchedPairs,
				ms(st.ScoreTime), ms(st.MatchTime), ms(st.ContractTime))
		}
	}
	fmt.Printf("detection: %d communities in %v (%d phases, terminated by %s)\n",
		res.NumCommunities, elapsed.Round(time.Millisecond), len(res.Stats), res.Termination)
	fmt.Printf("rate: %.3g input edges/second\n", float64(g.NumEdges())/elapsed.Seconds())
	fmt.Println("quality:", metrics.Evaluate(*threads, g, res.CommunityOf, res.NumCommunities))

	if *updates != "" && !canceled {
		ng, nres, err := streamUpdates(ctx, *updates, g, res, opt, *threads)
		if err != nil {
			fatal(err)
		}
		if nres != res {
			g, res = ng, nres
			fmt.Println("final quality:", metrics.Evaluate(*threads, g, res.CommunityOf, res.NumCommunities))
		}
	}

	comm, k := res.CommunityOf, res.NumCommunities
	if *doRefine && !canceled {
		rres, err := refine.Refine(g, comm, k, refine.Options{Threads: *threads})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("refinement: %d moves in %d sweeps, modularity %.4f -> %.4f\n",
			rres.Moves, rres.Sweeps, rres.ModularityBefore, rres.ModularityAfter)
		comm, k = rres.CommunityOf, rres.NumCommunities
	}
	if *compare && !canceled {
		t0 := time.Now()
		lou := baseline.Louvain(g, *seed)
		fmt.Printf("baseline louvain: %d communities, modularity %.4f, %v\n",
			lou.NumCommunities, lou.Modularity, time.Since(t0).Round(time.Millisecond))
		if g.NumEdges() <= 2_000_000 {
			t1 := time.Now()
			cnm := baseline.CNM(g)
			fmt.Printf("baseline cnm:     %d communities, modularity %.4f, %v\n",
				cnm.NumCommunities, cnm.Modularity, time.Since(t1).Round(time.Millisecond))
		} else {
			fmt.Println("baseline cnm:     skipped (graph too large for the sequential queue)")
		}
	}
	if *jsonPath != "" || *ledgerPath != "" {
		run := report.FromResult(runName(*inPath, *genName), g, opt, res)
		run.Meta = report.CollectMeta()
		run.Obs = rec.Export()
		run.AttachLedger(led)
		if *jsonPath != "" {
			f, err := os.Create(*jsonPath)
			if err != nil {
				fatal(err)
			}
			if err := run.WriteJSON(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote JSON report to %s\n", *jsonPath)
		}
		if *ledgerPath != "" {
			m := report.NewManifest("run", run.Graph, opt, rec, led)
			m.Summary = &run.Summary
			// The doctor assesses against the archive as it stands, BEFORE
			// this run's line is appended — so the appended manifest already
			// carries its own verdict.
			if *doctorOn {
				v := harness.RunDoctor(m, harness.DoctorConfig{
					LedgerPath: *ledgerPath, Profiler: prof, Ledger: led, Log: logger,
				})
				printVerdict(v)
			}
			if err := report.AppendManifest(*ledgerPath, m); err != nil {
				fatal(err)
			}
			fmt.Printf("appended run manifest to %s\n", *ledgerPath)
		}
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		if err := graphio.WriteCommunities(f, comm); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d assignments (%d communities) to %s\n", len(comm), k, *outPath)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote Chrome trace to %s (load in chrome://tracing or ui.perfetto.dev)\n", *traceOut)
	}
}

// streamUpdates replays a cdgu edge-update stream against the detected
// partition: each batch folds into a two-tier overlay over g and re-detects
// incrementally, chaining the dendrogram so only batch-incident communities
// are re-agglomerated. It returns the final base graph and detection result
// so downstream reporting (-refine, -out, -json) describes the post-stream
// state; with zero batches the inputs come back unchanged.
func streamUpdates(ctx context.Context, path string, g *graph.Graph, res *core.Result, opt core.Options, threads int) (*graph.Graph, *core.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	sc, err := graphio.NewDeltaScanner(f)
	if err != nil {
		return nil, nil, err
	}
	if sc.NumVertices() != g.NumVertices() {
		return nil, nil, fmt.Errorf("update stream %s is for %d vertices, graph has %d",
			path, sc.NumVertices(), g.NumVertices())
	}
	dend, err := hierarchy.FromFinal(g.NumVertices(), res.CommunityOf, res.NumCommunities)
	if err != nil {
		return nil, nil, err
	}
	ov := graph.NewOverlay(threads, g)
	scratch := core.NewScratch()
	cur, curRes := g, res
	batches := 0
	start := time.Now()
	for {
		d, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		ir, err := core.DetectIncrementalWithContext(ctx, ov, dend, d, opt, scratch)
		if err != nil {
			if errors.Is(err, context.Canceled) {
				// The overlay absorbed and folded the interrupted batch before
				// the detection stopped, and that fold may have patched cur in
				// place: report the folded base, which includes the batch.
				slog.Warn("interrupted mid-stream; reporting last completed batch's partition", "batches", batches)
				cur = ov.Base()
				break
			}
			return nil, nil, err
		}
		dend = ir.Dendrogram
		cur, curRes = ir.Graph, ir.Result
		batches++
		fmt.Printf("batch %4d: %6d updates  dissolved %d/%d communities (%d vertices)  -> %d communities  modularity %.4f  %v\n",
			d.Version, d.Len(), ir.DirtyCommunities, ir.PrevCommunities, ir.DissolvedVertices,
			ir.NumCommunities, ir.FinalModularity, time.Since(t0).Round(time.Microsecond))
	}
	if batches == 0 {
		return g, res, nil
	}
	fmt.Printf("stream: %d batches in %v, base now |V|=%d |E|=%d\n",
		batches, time.Since(start).Round(time.Millisecond), cur.NumVertices(), cur.NumEdges())
	// The final base is overlay-owned (valid until the overlay's next
	// compaction); clone it so the caller's reporting outlives the overlay.
	return cur.Clone(), curRes, nil
}

func loadGraph(inPath, format, genName string, scale int, n int64, seed uint64, threads int) (*graph.Graph, error) {
	switch {
	case inPath != "" && genName != "":
		return nil, fmt.Errorf("use either -in or -gen, not both")
	case inPath != "":
		if format == "mmapcsr" {
			// Without -shards the mapped file is materialized on the heap;
			// pair -format mmapcsr with -shards to keep it off-heap.
			mp, err := graphio.OpenMapped(inPath)
			if err != nil {
				return nil, err
			}
			defer mp.Close()
			mp.Advise(graphio.AdviseSequential)
			return graph.FromCSR(threads, mp.CSR())
		}
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		switch format {
		case "edgelist":
			return graphio.ReadEdgeList(f, threads, 0)
		case "binary":
			return graphio.ReadBinary(f, threads)
		}
		return nil, fmt.Errorf("unknown format %q", format)
	case genName == "rmat":
		g, _, err := gen.ConnectedRMAT(threads, gen.DefaultRMAT(scale, seed))
		return g, err
	case genName == "lj":
		g, _, err := gen.LJSim(threads, gen.DefaultLJSim(n, seed))
		return g, err
	case genName == "web":
		g, _, err := gen.WebCrawl(threads, gen.DefaultWebCrawl(n, seed))
		return g, err
	case genName == "karate":
		return gen.Karate(), nil
	case genName == "cliquechain":
		return gen.CliqueChain(64, 16), nil
	case genName == "":
		return nil, fmt.Errorf("provide -in FILE or -gen NAME (rmat|lj|web|karate|cliquechain)")
	}
	return nil, fmt.Errorf("unknown generator %q", genName)
}

func parseKernels(s string, opt *core.Options) error {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return fmt.Errorf("kernels must be \"matching,contraction\", got %q", s)
	}
	switch parts[0] {
	case "worklist":
		opt.Matching = core.MatchWorklist
	case "edgesweep":
		opt.Matching = core.MatchEdgeSweep
	default:
		return fmt.Errorf("unknown matching kernel %q", parts[0])
	}
	switch parts[1] {
	case "bucket":
		opt.Contraction = core.ContractBucket
	case "bucket-noncontig":
		opt.Contraction = core.ContractBucketNonContiguous
	case "listchase":
		opt.Contraction = core.ContractListChase
	default:
		return fmt.Errorf("unknown contraction kernel %q", parts[1])
	}
	return nil
}

// printVerdict summarizes the doctor's assessment on stdout, next to the
// detection summary it judges.
func printVerdict(v *obs.Verdict) {
	if v == nil {
		return
	}
	switch v.Status {
	case obs.VerdictNoBaseline:
		fmt.Printf("doctor: no baseline yet (%d archived runs under this key)\n", v.BaselineRuns)
	case obs.VerdictAnomalous:
		fmt.Printf("doctor: ANOMALOUS vs %d-run baseline (%d findings, %d regressions, max |z| %.1f)\n",
			v.BaselineRuns, len(v.Findings), v.Regressions(), v.MaxAbsZ)
		for _, f := range v.Findings {
			fmt.Printf("doctor:   %s %.4g vs median %.4g (z %+.1f)\n", f.Metric, f.Value, f.Median, f.Z)
		}
		if v.ProfileRef != "" {
			fmt.Printf("doctor: profile captured: %s\n", v.ProfileRef)
		}
	default:
		fmt.Printf("doctor: ok vs %d-run baseline (max |z| %.1f)\n", v.BaselineRuns, v.MaxAbsZ)
	}
}

// runName labels the report with the input file or generator used.
func runName(inPath, genName string) string {
	if inPath != "" {
		return inPath
	}
	return "gen:" + genName
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func fatal(err error) {
	slog.Error(err.Error())
	os.Exit(1)
}
