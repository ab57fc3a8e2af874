// Command bench regenerates every table and figure of the paper's
// evaluation (§V) on the present host, plus the ablation experiments for
// the engineering claims of §IV. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for recorded paper-vs-measured results.
//
// Modes (combine freely; -all runs everything):
//
//	-table1    platform characteristics (Table I stand-in)
//	-table2    benchmark graph sizes (Table II)
//	-table3    peak processing rates (Table III)
//	-fig1      execution time vs. threads (Figure 1)
//	-fig2      parallel speed-up vs. threads (Figure 2)
//	-fig3      time and speed-up on the large crawl graph (Figure 3)
//	-ablation  old vs. new matching and contraction kernels (§IV-B/C, the
//	           "20% improvement" and "drastic on Intel" claims)
//	-phases    per-phase time breakdown (§IV-C: contraction takes 40–80%)
//	-imbalance edge-balanced level schedule: per-region worker imbalance
//	           on a skewed R-MAT and a uniform grid, plus the analytic
//	           per-phase schedule bound

//	-quality   modularity vs. sequential CNM and Louvain (§V sanity check)
//	-extensions paper-named extensions: per-phase refinement (§II),
//	           community size caps (§III), algebraic SᵀAS contraction (§VI)
//
// Workload sizes default to laptop scale; raise -scale/-nlj/-nweb on bigger
// hardware to push toward the paper's graph sizes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/baseline"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/matching"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pregel"
	"repro/internal/refine"
	"repro/internal/report"
	"repro/internal/scoring"
	"repro/internal/sparse"
)

type modes struct {
	table1, table2, table3    bool
	fig1, fig2, fig3          bool
	ablation, phases, quality bool
	extensions, memory        bool
	imbalance, engines        bool
}

func main() {
	var m modes
	flag.BoolVar(&m.table1, "table1", false, "Table I: platform characteristics")
	flag.BoolVar(&m.table2, "table2", false, "Table II: graph sizes")
	flag.BoolVar(&m.table3, "table3", false, "Table III: peak processing rates")
	flag.BoolVar(&m.fig1, "fig1", false, "Figure 1: time vs threads")
	flag.BoolVar(&m.fig2, "fig2", false, "Figure 2: speed-up vs threads")
	flag.BoolVar(&m.fig3, "fig3", false, "Figure 3: large-graph time and speed-up")
	flag.BoolVar(&m.ablation, "ablation", false, "kernel ablations (§IV)")
	flag.BoolVar(&m.phases, "phases", false, "phase time breakdown (§IV-C)")
	flag.BoolVar(&m.quality, "quality", false, "modularity vs sequential baselines (§V)")
	flag.BoolVar(&m.extensions, "extensions", false, "paper-named extensions: per-phase refinement, size caps, algebraic contraction")
	flag.BoolVar(&m.memory, "memory", false, "space accounting vs the paper's §IV formulas")
	flag.BoolVar(&m.imbalance, "imbalance", false, "edge-balanced level schedule: worker imbalance and analytic bounds")
	flag.BoolVar(&m.engines, "engines", false, "speed-by-quality matrix across detection engines (matching/plp/ensemble)")
	all := flag.Bool("all", false, "run every experiment")
	engineArg := flag.String("engine", "matching", "engine used by the sweep modes: matching | plp | ensemble")
	scale := flag.Int("scale", 16, "R-MAT scale (paper: 24)")
	nLJ := flag.Int64("nlj", 200_000, "lj-sim vertices (paper: 4.8M)")
	nWeb := flag.Int64("nweb", 400_000, "uk-sim vertices (paper: 105.9M)")
	trials := flag.Int("trials", 3, "trials per configuration (paper: 3)")
	maxThreads := flag.Int("max-threads", runtime.GOMAXPROCS(0), "top of the thread sweep")
	seed := flag.Uint64("seed", 1, "workload seed")
	csvDir := flag.String("csv", "", "also write raw records as CSV into this directory")
	metaOnly := flag.Bool("meta", false, "print run metadata (go version, CPUs, git revision) as one JSON line and exit")
	traceOut := flag.String("trace.out", "", "write a Chrome trace_event timeline of the -phases run to this file (implies -phases)")
	convergence := flag.Bool("convergence", false, "print the -phases run's per-level convergence table (implies -phases)")
	ledgerPath := flag.String("ledger", "", "append the -phases run's JSON manifest to this file (implies -phases)")
	doctorOn := flag.Bool("doctor", true, "assess the -ledger run against the archived baseline (run doctor)")
	profileDir := flag.String("profile.dir", obs.DefaultProfileDir, "archive triggered pprof captures under this directory")
	metricsAddr := flag.String("metrics.addr", "", "serve live detection metrics over HTTP on this address (e.g. localhost:6070)")
	logLevel := flag.String("log.level", "info", "diagnostic log level: debug | info | warn | error")
	logFormat := flag.String("log.format", "text", "diagnostic log format: text | json")
	flag.Parse()

	logger, err := obs.NewLogger(*logLevel, *logFormat, os.Stderr)
	check(err)
	slog.SetDefault(logger)

	// SIGQUIT dumps the flight-recorder black box under results/ before the
	// default goroutine-dump crash proceeds.
	stopQuit := obs.FlightOnSIGQUIT("results")
	defer stopQuit()

	if *metaOnly {
		// One JSON line describing the host and build, for prepending to an
		// archived BENCH_*.json benchmark stream (see the Makefile bench
		// target).
		meta := struct {
			Bench string       `json:"bench"`
			Date  string       `json:"date"`
			Meta  *report.Meta `json:"meta"`
		}{"cmd/bench", time.Now().UTC().Format(time.RFC3339), report.CollectMeta()}
		check(json.NewEncoder(os.Stdout).Encode(meta))
		return
	}

	if *all {
		m = modes{true, true, true, true, true, true, true, true, true, true, true, true, true}
	}
	if *traceOut != "" || *convergence || *ledgerPath != "" {
		m.phases = true // these sinks record the instrumented phases run
	}
	if m == (modes{}) && *metricsAddr == "" {
		flag.Usage()
		os.Exit(2)
	}

	// SIGINT cancels the in-flight detection at its next phase or kernel
	// boundary; check() then flushes any pending trace before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	engine, err := core.ParseEngine(*engineArg)
	check(err)
	b := &bencher{
		ctx:   ctx,
		scale: *scale, nLJ: *nLJ, nWeb: *nWeb,
		trials: *trials, maxThreads: *maxThreads, seed: *seed, csvDir: *csvDir,
		engine: engine,
	}
	if m.phases || *metricsAddr != "" {
		b.rec = obs.New()
		b.rec.SetFlight(obs.Flight())
		b.led = obs.NewLedger()
		b.led.SetLogger(logger)
		b.prof = obs.NewProfiler(obs.ProfilerOptions{Dir: *profileDir})
		b.led.SetProfiler(b.prof)
		b.convergence = *convergence
		b.ledgerPath = *ledgerPath
		b.doctorOn = *doctorOn
	}
	if *traceOut != "" {
		path := *traceOut
		flushOnExit = func() { writeTrace(b.rec, path) }
	}
	if *metricsAddr != "" {
		srv, err := obs.Serve(*metricsAddr, b.rec, b.led)
		check(err)
		defer srv.Close()
		logger.Info("serving live metrics",
			"url", fmt.Sprintf("http://%s/metrics/prom", srv.Addr()),
			"flight", "/debug/flight", "pprof", "/debug/pprof/")
	}
	// A panic below must not lose the telemetry gathered so far: write the
	// flight-recorder black box and the partial trace/manifest through the
	// shared crash helper, then re-panic with the original value so the crash
	// itself is unchanged.
	tracePath := *traceOut
	defer func() {
		if r := recover(); r != nil {
			flushOnExit = nil // FlushCrash owns the trace now
			harness.FlushCrash("partial", harness.CrashArtifacts{
				Rec: b.rec, Led: b.led,
				TraceOut: tracePath, LedgerPath: b.ledgerPath,
				Graph: b.ledgerGraph, Options: b.ledgerOpt, Log: logger,
			})
			panic(r)
		}
	}()

	if m.table1 {
		section("Table I — platform characteristics (host stand-in for the paper's five platforms)")
		check(harness.PlatformTable(os.Stdout))
	}
	if m.table2 {
		section("Table II — sizes of graphs used for performance evaluation")
		check(harness.GraphTable(os.Stdout, []harness.GraphInfo{
			harness.Info(b.rmatName(), b.rmat()),
			harness.Info("lj-sim", b.lj()),
			harness.Info("uk-sim", b.web()),
		}))
	}
	if m.fig1 || m.fig2 || m.table3 {
		recs := b.smallSweeps()
		if m.fig1 {
			section("Figure 1 — execution time (s) against threads per graph (best of trials)")
			check(harness.RenderTimeTable(os.Stdout, recs))
			fmt.Println()
			check(harness.RenderStatsTable(os.Stdout, recs))
			fmt.Println()
			check(harness.RenderKernelTable(os.Stdout, recs))
		}
		if m.fig2 {
			section("Figure 2 — parallel speed-up relative to best single-thread run")
			check(harness.RenderSpeedupTable(os.Stdout, recs))
		}
		if m.table3 {
			all := append(append([]harness.Record{}, recs...), b.largeSweep()...)
			section("Table III — peak processing rate (input edges per second)")
			check(harness.RenderRateTable(os.Stdout, all))
		}
	}
	if m.fig3 {
		recs := b.largeSweep()
		section("Figure 3 — uk-sim execution time (s) against threads")
		check(harness.RenderTimeTable(os.Stdout, recs))
		fmt.Println()
		check(harness.RenderSpeedupTable(os.Stdout, recs))
	}
	if m.ablation {
		b.runAblation()
	}
	if m.phases {
		b.runPhases()
	}
	if m.quality {
		b.runQuality()
	}
	if m.extensions {
		b.runExtensions()
	}
	if m.memory {
		b.runMemory()
	}
	if m.imbalance {
		b.runImbalance()
	}
	if m.engines {
		b.runEngines()
	}
	if flushOnExit != nil {
		flushOnExit()
		flushOnExit = nil
	}
}

// flushOnExit, when set, runs before any exit path — normal completion or a
// fatal check() — so an interrupted run still writes its partial trace.
var flushOnExit func()

func writeTrace(rec *obs.Recorder, path string) {
	f, err := os.Create(path)
	if err != nil {
		slog.Error("trace write failed", "error", err)
		return
	}
	if err := rec.WriteTrace(f); err != nil {
		slog.Error("trace write failed", "error", err)
	}
	if err := f.Close(); err != nil {
		slog.Error("trace write failed", "error", err)
	}
	slog.Info("wrote Chrome trace (load in chrome://tracing or ui.perfetto.dev)", "path", path)
}

type bencher struct {
	ctx         context.Context
	scale       int
	nLJ, nWeb   int64
	trials      int
	maxThreads  int
	seed        uint64
	csvDir      string
	engine      core.Engine   // engine for the sweep modes (-engine flag)
	rec         *obs.Recorder // nil unless -phases / -trace.out / -metrics.addr
	led         *obs.Ledger   // convergence rows for the -phases run; same gating
	prof        *obs.Profiler // triggered pprof captures; same gating
	convergence bool          // print the convergence table after -phases
	ledgerPath  string        // append the -phases manifest here ("" = off)
	doctorOn    bool          // assess the -ledger manifest before appending
	// ledgerGraph/ledgerOpt describe the instrumented run for its manifest;
	// set by runPhases before detection so a panic flush can label partial rows.
	ledgerGraph report.GraphInfo
	ledgerOpt   core.Options
	// ledgerSummary is the finished run's outcome; nil until the -phases
	// detection completes, so a partial crash manifest stays summary-less.
	ledgerSummary *report.Summary

	rmatG, ljG, webG *graph.Graph
	smallRecs        []harness.Record
	largeRecs        []harness.Record
}

func (b *bencher) rmatName() string { return fmt.Sprintf("rmat-%d-16", b.scale) }

func (b *bencher) rmat() *graph.Graph {
	if b.rmatG == nil {
		slog.Info("generating workload", "graph", b.rmatName())
		g, _, err := gen.ConnectedRMAT(0, gen.DefaultRMAT(b.scale, b.seed))
		check(err)
		b.rmatG = g
	}
	return b.rmatG
}

func (b *bencher) lj() *graph.Graph {
	if b.ljG == nil {
		slog.Info("generating workload", "graph", "lj-sim")
		g, _, err := gen.LJSim(0, gen.DefaultLJSim(b.nLJ, b.seed+1))
		check(err)
		b.ljG = g
	}
	return b.ljG
}

func (b *bencher) web() *graph.Graph {
	if b.webG == nil {
		slog.Info("generating workload", "graph", "uk-sim")
		g, _, err := gen.WebCrawl(0, gen.DefaultWebCrawl(b.nWeb, b.seed+2))
		check(err)
		b.webG = g
	}
	return b.webG
}

func (b *bencher) config() harness.Config {
	return harness.Config{
		Threads: harness.ThreadSeries(b.maxThreads),
		Trials:  b.trials,
		Options: core.Options{MinCoverage: 0.5, Engine: b.engine},
	}
}

// smallSweeps runs the Figure 1/2 sweeps (rmat + lj-sim, the paper's two
// scaling graphs) and caches the records.
func (b *bencher) smallSweeps() []harness.Record {
	if b.smallRecs != nil {
		return b.smallRecs
	}
	cfg := b.config()
	recs, err := harness.SweepContext(b.ctx, b.rmat(), b.rmatName(), cfg)
	check(err)
	lj, err := harness.SweepContext(b.ctx, b.lj(), "lj-sim", cfg)
	check(err)
	b.smallRecs = append(recs, lj...)
	b.writeCSV("fig1_fig2.csv", b.smallRecs)
	return b.smallRecs
}

// largeSweep runs the Figure 3 sweep (uk-sim, the data-scalability graph).
func (b *bencher) largeSweep() []harness.Record {
	if b.largeRecs != nil {
		return b.largeRecs
	}
	recs, err := harness.SweepContext(b.ctx, b.web(), "uk-sim", b.config())
	check(err)
	b.largeRecs = recs
	b.writeCSV("fig3.csv", recs)
	return recs
}

// runAblation reproduces the §IV engineering claims: the worklist matching
// and bucket contraction vs. their 2011 predecessors, and the contiguous
// vs. non-contiguous bucket layouts the paper left untimed.
func (b *bencher) runAblation() {
	section("Ablation — kernel variants at full thread count (§IV-B, §IV-C)")
	g := b.lj()
	type combo struct {
		label string
		mk    core.MatchKernel
		ck    core.ContractKernel
	}
	combos := []combo{
		{"new  (worklist + bucket)", core.MatchWorklist, core.ContractBucket},
		{"new  (worklist + bucket-noncontig)", core.MatchWorklist, core.ContractBucketNonContiguous},
		{"old matching (edgesweep + bucket)", core.MatchEdgeSweep, core.ContractBucket},
		{"old contraction (worklist + listchase)", core.MatchWorklist, core.ContractListChase},
		{"2011 algorithm (edgesweep + listchase)", core.MatchEdgeSweep, core.ContractListChase},
	}
	var baselineTime float64
	for _, c := range combos {
		best := 1e18
		for trial := 0; trial < b.trials; trial++ {
			start := time.Now()
			_, err := core.DetectContext(b.ctx, g, core.Options{
				Threads: b.maxThreads, MinCoverage: 0.5, Matching: c.mk, Contraction: c.ck})
			check(err)
			if s := time.Since(start).Seconds(); s < best {
				best = s
			}
		}
		if baselineTime == 0 {
			baselineTime = best
		}
		fmt.Printf("%-42s %8.3fs  (%.2fx vs new)\n", c.label, best, best/baselineTime)
	}
}

// runPhases reproduces the §IV-C observation that contraction takes 40–80%
// of execution time, running under the obs recorder so the kernel-level
// profile (sub-spans, counters, imbalance, bucket histogram) prints too and
// feeds -trace.out / -metrics.addr.
func (b *bencher) runPhases() {
	section("Phase breakdown — share of time per primitive (§IV-C)")
	g := b.lj()
	opt := core.Options{
		Threads: b.maxThreads, MinCoverage: 0.5, Recorder: b.rec, Ledger: b.led}
	b.ledgerGraph = report.Info("lj-sim", g)
	b.ledgerOpt = opt
	res, err := core.DetectContext(b.ctx, g, opt)
	check(err)
	b.ledgerSummary = &report.Summary{
		Communities: res.NumCommunities,
		Coverage:    res.FinalCoverage,
		Modularity:  res.FinalModularity,
		Termination: string(res.Termination),
		TotalSec:    res.Total.Seconds(),
		EdgesPerSec: float64(g.NumEdges()) / res.Total.Seconds(),
	}
	check(harness.RenderPhaseTable(os.Stdout, res.Stats))
	if b.convergence {
		check(harness.RenderConvergenceTable(os.Stdout, b.led.Levels(), b.led.Warnings()))
	}
	if b.ledgerPath != "" {
		b.flushLedger("run")
	}
	var score, match, contractT time.Duration
	for _, st := range res.Stats {
		score += st.ScoreTime
		match += st.MatchTime
		contractT += st.ContractTime
	}
	total := score + match + contractT
	fmt.Printf("share: score %.1f%%  match %.1f%%  contract %.1f%%  (paper: contraction 40–80%%)\n",
		100*float64(score)/float64(total),
		100*float64(match)/float64(total),
		100*float64(contractT)/float64(total))
	b.printProfile(res)
}

// flushLedger appends the instrumented run's manifest (kind "run" normally,
// "partial" from the panic path) to -ledger.
func (b *bencher) flushLedger(kind string) {
	if b.ledgerPath == "" {
		return
	}
	m := report.NewManifest(kind, b.ledgerGraph, b.ledgerOpt, b.rec, b.led)
	if kind == "run" {
		m.Summary = b.ledgerSummary
	}
	if kind == "run" && b.doctorOn {
		harness.RunDoctor(m, harness.DoctorConfig{
			LedgerPath: b.ledgerPath, Profiler: b.prof, Ledger: b.led,
		})
	}
	if err := report.AppendManifest(b.ledgerPath, m); err != nil {
		slog.Error("manifest append failed", "error", err)
		return
	}
	slog.Info("appended run manifest", "path", b.ledgerPath)
}

// printProfile renders the recorder's kernel-level view of the phases run:
// per-kernel span seconds against the engine's own phase-stat wall time, the
// matching/contraction counters, per-region worker imbalance, and the
// contraction bucket-occupancy histogram.
func (b *bencher) printProfile(res *core.Result) {
	if !b.rec.Enabled() {
		return
	}
	prof := b.rec.Export()
	var wall float64
	for _, st := range res.Stats {
		wall += (st.ScoreTime + st.MatchTime + st.ContractTime).Seconds()
	}
	fmt.Println("\nrecorded kernel spans (obs):")
	var spanSum float64
	for _, k := range prof.Kernels {
		fmt.Printf("  %-10s %9.3fs  over %d spans\n", k.Kernel, k.Seconds, k.Spans)
		spanSum += k.Seconds
	}
	if wall > 0 {
		fmt.Printf("  span total %.3fs vs phase-stat total %.3fs (%.1f%%)\n",
			spanSum, wall, 100*spanSum/wall)
	}
	if len(prof.Counters) > 0 {
		fmt.Println("counters:")
		for c := obs.Counter(0); c < obs.NumCounters; c++ {
			if v, ok := prof.Counters[c.String()]; ok {
				fmt.Printf("  %-24s %d\n", c.String(), v)
			}
		}
	}
	if len(prof.Regions) > 0 {
		fmt.Println("parallel regions (imbalance = slowest worker / even share):")
		for _, r := range prof.Regions {
			fmt.Printf("  %-18s %4d calls  %2d workers  imbalance %.2f\n",
				r.Region, r.Calls, r.Workers, r.Imbalance)
		}
	}
	if len(prof.BucketHist) > 0 {
		fmt.Println("contraction bucket occupancy (pre-dedup length -> buckets):")
		for _, hb := range prof.BucketHist {
			fmt.Printf("  <=%-8d %d\n", hb.MaxLen, hb.Buckets)
		}
	}
	if len(prof.Latencies) > 0 {
		fmt.Println("latency quantiles (log-linear histogram, <=1/16 relative error):")
		check(harness.RenderLatencyTable(os.Stdout, prof.Latencies))
	}
}

// runImbalance reports how evenly the per-level edge-balanced schedule
// spreads work on a skewed R-MAT and a uniform grid. Two views are printed
// per graph:
//
//   - the obs recorder's wall-clock per-region worker imbalance (meaningful
//     only with real cores: on an oversubscribed or single-core host the
//     workers time-share and the numbers are noise);
//   - the analytic schedule bound per phase: a whole-bucket (vertex-aligned)
//     schedule must hand the largest bucket to one worker, so its imbalance
//     is at least maxBucket/((m+n)/p), while the hub-splitting span schedule
//     is within one bucket's +1 unit of even by construction (~1.00). The
//     bound is deterministic and host-independent.
func (b *bencher) runImbalance() {
	section("Schedule imbalance — edge-balanced spans per level")
	p := b.maxThreads
	side := int64(1) << (b.scale / 2)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{b.rmatName(), b.rmat()},
		{fmt.Sprintf("grid-%d", side), gen.Grid(side, side)},
	}
	for _, gr := range graphs {
		rec := obs.New()
		res, err := core.DetectContext(b.ctx, gr.g, core.Options{Threads: p, Recorder: rec})
		check(err)
		fmt.Printf("\n%s  p=%d  (wall-clock region imbalance; needs real cores)\n", gr.name, p)
		for _, r := range rec.Export().Regions {
			fmt.Printf("  %-18s %4d calls  %2d workers  busy %7.3fs  imbalance %.2f\n",
				r.Region, r.Calls, r.Workers, r.BusySec, r.Imbalance)
		}
		fmt.Printf("\n%s  analytic per-phase schedule bound at p=%d (host-independent):\n", gr.name, p)
		fmt.Printf("  %5s %10s %10s %10s %14s %12s\n",
			"phase", "vertices", "edges", "maxbucket", "aligned>=", "spans~")
		for _, st := range res.Stats {
			work := st.Edges + st.Vertices // +1 unit per vertex, the partition's weighting
			alignedLB := 1.0
			if work > 0 {
				if lb := float64(st.MaxBucketLen+1) * float64(p) / float64(work); lb > 1 {
					alignedLB = lb
				}
			}
			spanUB := 1.0
			if work > 0 {
				// A span boundary overshoots even by at most one vertex unit.
				spanUB = 1 + float64(p)/float64(work)
			}
			fmt.Printf("  %5d %10d %10d %10d %14.2f %12.4f\n",
				st.Phase, st.Vertices, st.Edges, st.MaxBucketLen, alignedLB, spanUB)
		}
	}
}

// runQuality reproduces the §V sanity check: "smaller graphs' resulting
// modularities appear reasonable compared with ... a different, sequential
// implementation" — here CNM and Louvain.
func (b *bencher) runQuality() {
	section("Quality — modularity vs sequential baselines (§V sanity check)")
	type workload struct {
		name string
		g    *graph.Graph
	}
	karate := gen.Karate()
	chain := gen.CliqueChain(64, 16)
	ljq, _, err := gen.LJSim(0, gen.DefaultLJSim(20_000, b.seed+7))
	check(err)
	fmt.Println("graph         parallel-agglom  +refine   CNM      Louvain  LPA")
	for _, w := range []workload{{"karate", karate}, {"cliquechain", chain}, {"lj-sim-20k", ljq}} {
		res, err := core.DetectContext(b.ctx, w.g, core.Options{Threads: b.maxThreads})
		check(err)
		ref, err := refine.Refine(w.g, res.CommunityOf, res.NumCommunities,
			refine.Options{Threads: b.maxThreads})
		check(err)
		cnm := baseline.CNM(w.g)
		lou := baseline.Louvain(w.g, b.seed)
		lpaComm, lpaK, _, err := pregel.LabelPropagation(b.maxThreads, w.g, 0)
		check(err)
		lpaQ := metrics.Modularity(b.maxThreads, w.g, lpaComm, lpaK)
		fmt.Printf("%-12s  %15.4f  %7.4f  %7.4f  %7.4f  %7.4f\n",
			w.name, res.FinalModularity, ref.ModularityAfter, cnm.Modularity, lou.Modularity, lpaQ)
		fmt.Printf("%-12s  detail: %s\n", "", metrics.Evaluate(b.maxThreads, w.g, res.CommunityOf, res.NumCommunities))
	}
}

// runEngines prints the speed-by-quality matrix the multi-engine design is
// judged on: per graph and engine, the best end-to-end Detect wall time, the
// input-edge processing rate, and the modularity of the partition it buys.
// The engine column is also in every harness CSV row, so benchdiff can gate
// regressions per engine (see the bench-engines make target for the
// Mann-Whitney speed gate).
func (b *bencher) runEngines() {
	section("Engines — speed-by-quality matrix (matching vs plp vs ensemble)")
	engines := []core.Engine{core.EngineMatching, core.EnginePLP, core.EngineEnsemble}
	var all []harness.Record
	for _, w := range []struct {
		name string
		g    *graph.Graph
	}{{b.rmatName(), b.rmat()}, {"lj-sim", b.lj()}} {
		for _, e := range engines {
			cfg := harness.Config{
				Threads: []int{b.maxThreads},
				Trials:  b.trials,
				Options: core.Options{Engine: e},
			}
			recs, err := harness.SweepContext(b.ctx, w.g, w.name, cfg)
			check(err)
			all = append(all, recs...)
		}
	}
	check(harness.RenderEngineTable(os.Stdout, all))
	b.writeCSV("engines.csv", all)
}

// runMemory reports measured storage against the paper's §IV space
// formulas: 3|V|+3|E| for the graph, |E|+4|V| (+|V| locks) for matching,
// |V|+1+2|E| for contraction.
func (b *bencher) runMemory() {
	section("Memory — measured storage vs the paper's §IV space formulas")
	g := b.lj()
	f := g.MemoryFootprint()
	fmt.Printf("graph (|V|=%d |E|=%d): %d words measured (3|V|+2|E|, owners implied), paper's 3|V|+3|E| = %d (+%d scalars) — %s\n",
		g.NumVertices(), g.NumEdges(), f.TotalWords(), g.PaperFormulaWords(), f.ScalarWords,
		fmtMiB(f.Bytes()))
	mw, locks := graph.MatchingWorkspaceWords(g)
	fmt.Printf("matching workspace: |E|+4|V| = %d words + |V| = %d lock words — %s\n",
		mw, locks, fmtMiB(8*(mw+locks)))
	cw := graph.ContractionWorkspaceWords(g)
	fmt.Printf("contraction workspace: |V|+1+2|E| = %d words — %s\n", cw, fmtMiB(8*cw))
}

func fmtMiB(bytes int64) string {
	return fmt.Sprintf("%.1f MiB", float64(bytes)/(1<<20))
}

// runExtensions measures the paper-named extensions: refinement integrated
// into every phase (§II future work), the community size cap (§III), and
// the algebraic SᵀAS contraction (§VI).
func (b *bencher) runExtensions() {
	section("Extensions — refinement integration, size caps, algebraic contraction")
	g := b.lj()

	t0 := time.Now()
	plain, err := core.DetectContext(b.ctx, g, core.Options{Threads: b.maxThreads})
	check(err)
	tPlain := time.Since(t0)
	t1 := time.Now()
	refined, err := core.DetectContext(b.ctx, g, core.Options{Threads: b.maxThreads, RefineEveryPhase: true})
	check(err)
	tRef := time.Since(t1)
	fmt.Printf("plain engine:             Q=%.4f  %8.3fs  %5d communities\n",
		plain.FinalModularity, tPlain.Seconds(), plain.NumCommunities)
	fmt.Printf("refine-every-phase:       Q=%.4f  %8.3fs  %5d communities\n",
		refined.FinalModularity, tRef.Seconds(), refined.NumCommunities)

	for _, cap := range []int64{16, 64, 256} {
		res, err := core.DetectContext(b.ctx, g, core.Options{Threads: b.maxThreads, MaxCommunitySize: cap})
		check(err)
		maxSize := int64(0)
		for _, s := range res.Sizes {
			if s > maxSize {
				maxSize = s
			}
		}
		fmt.Printf("size cap %4d:            Q=%.4f  %5d communities, largest %d\n",
			cap, res.FinalModularity, res.NumCommunities, maxSize)
	}

	// Algebraic vs direct contraction on the phase-0 mapping.
	ec := exec.New(b.ctx, b.maxThreads, nil)
	defer ec.Close()
	deg := g.WeightedDegrees(b.maxThreads)
	scores := make([]float64, len(g.V))
	scoring.Modularity{}.Score(ec, g, deg, g.TotalWeight(b.maxThreads), scores)
	mres := matching.Worklist(ec, g, scores)
	mapping, k := contract.Relabel(ec, g, mres.Match)
	t2 := time.Now()
	contract.ByMapping(ec, g, mapping, k, contract.Contiguous)
	tDirect := time.Since(t2)
	t3 := time.Now()
	_, err = sparse.ContractAlgebraic(b.maxThreads, g, mapping, k)
	check(err)
	tAlg := time.Since(t3)
	fmt.Printf("contraction, direct:      %8.3fs\n", tDirect.Seconds())
	fmt.Printf("contraction, SᵀAS SpGEMM: %8.3fs  (%.1fx of direct; §VI formulation)\n",
		tAlg.Seconds(), tAlg.Seconds()/tDirect.Seconds())
}

func (b *bencher) writeCSV(name string, recs []harness.Record) {
	if b.csvDir == "" {
		return
	}
	check(os.MkdirAll(b.csvDir, 0o755))
	f, err := os.Create(filepath.Join(b.csvDir, name))
	check(err)
	check(harness.WriteCSV(f, recs))
	check(f.Close())
}

func section(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func check(err error) {
	if err != nil {
		if errors.Is(err, context.Canceled) {
			slog.Warn("interrupted", "error", err)
		} else {
			slog.Error(err.Error())
		}
		if flushOnExit != nil {
			flushOnExit()
		}
		os.Exit(1)
	}
}
