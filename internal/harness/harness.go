// Package harness drives the §V evaluation: thread-count sweeps with
// repeated trials over the benchmark graphs, and renderers that print the
// same rows and series the paper's tables and figures report. The paper's
// platform axis (two Cray XMT generations, three Intel servers) becomes a
// thread-count axis on the present host — see DESIGN.md for the
// substitution rationale.
package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/report"
)

// Record captures one detection run.
type Record struct {
	Graph    string
	Vertices int64
	Edges    int64
	Threads  int
	// Engine names the detection pipeline that produced the run
	// (matching/plp/ensemble) — the speed-by-quality matrix axis.
	Engine      string
	Trial       int
	Seconds     float64
	EdgesPerSec float64
	Phases      int
	Communities int64
	Coverage    float64
	Modularity  float64
	Termination string
	// ScoreSec/MatchSec/ContractSec are the run's per-kernel totals summed
	// over phases — the Figures 4–6 breakdown axis. Their sum is below
	// Seconds; the remainder is coverage/modularity evaluation and loop glue.
	ScoreSec    float64
	MatchSec    float64
	ContractSec float64
}

// Config describes a sweep: which thread counts, how many trials each, and
// the engine options to use (Options.Threads is overridden per run).
type Config struct {
	Threads []int
	Trials  int
	Options core.Options
}

// DefaultConfig mirrors the paper's §V methodology: powers of two up to the
// available parallelism, three trials per point ("each experiment is run
// three times to capture some of the variability ... in our
// non-deterministic algorithm"), and coverage ≥ 0.5 termination.
func DefaultConfig() Config {
	return Config{
		Threads: ThreadSeries(runtime.GOMAXPROCS(0)),
		Trials:  3,
		Options: core.Options{MinCoverage: 0.5},
	}
}

// ThreadSeries returns 1, 2, 4, ... up to and including max.
func ThreadSeries(max int) []int {
	if max < 1 {
		max = 1
	}
	var s []int
	for t := 1; t < max; t *= 2 {
		s = append(s, t)
	}
	return append(s, max)
}

// Sweep runs the configured trials of community detection on g and returns
// one Record per (threads, trial). All trials share one scratch arena, so
// every run after the first starts with warm buffers — the steady state a
// long-lived service would see, and the regime the paper's repeated-trial
// methodology actually times.
func Sweep(g *graph.Graph, name string, cfg Config) ([]Record, error) {
	return SweepContext(context.Background(), g, name, cfg)
}

// SweepContext is Sweep under a cancellation context. The whole sweep runs
// on one long-lived worker team sized to the widest thread setting; each
// setting derives a narrower view of the same team, so no goroutines are
// spawned or torn down between runs. Cancellation aborts the current
// detection at its next kernel boundary and returns the records gathered so
// far alongside the error.
func SweepContext(ctx context.Context, g *graph.Graph, name string, cfg Config) ([]Record, error) {
	if cfg.Trials < 1 {
		cfg.Trials = 1
	}
	if len(cfg.Threads) == 0 {
		cfg.Threads = ThreadSeries(runtime.GOMAXPROCS(0))
	}
	scratch := core.NewScratch()
	maxTh := 1
	for _, th := range cfg.Threads {
		if th > maxTh {
			maxTh = th
		}
	}
	ec := exec.New(ctx, maxTh, cfg.Options.Recorder)
	defer ec.Close()
	var out []Record
	for _, th := range cfg.Threads {
		ecT := ec.WithThreads(th)
		for trial := 0; trial < cfg.Trials; trial++ {
			opt := cfg.Options
			opt.Threads = th
			start := time.Now()
			res, err := core.DetectExec(ecT, g, opt, scratch)
			if err != nil {
				return out, fmt.Errorf("harness: %s threads=%d trial=%d: %w", name, th, trial, err)
			}
			secs := time.Since(start).Seconds()
			var scoreSec, matchSec, contractSec float64
			for _, st := range res.Stats {
				scoreSec += st.ScoreTime.Seconds()
				matchSec += st.MatchTime.Seconds()
				contractSec += st.ContractTime.Seconds()
			}
			out = append(out, Record{
				Graph:       name,
				Vertices:    g.NumVertices(),
				Edges:       g.NumEdges(),
				Threads:     th,
				Engine:      opt.Engine.String(),
				Trial:       trial,
				Seconds:     secs,
				EdgesPerSec: float64(g.NumEdges()) / secs,
				Phases:      len(res.Stats),
				Communities: res.NumCommunities,
				Coverage:    res.FinalCoverage,
				Modularity:  res.FinalModularity,
				Termination: string(res.Termination),
				ScoreSec:    scoreSec,
				MatchSec:    matchSec,
				ContractSec: contractSec,
			})
		}
	}
	return out, nil
}

// BestSeconds returns the fastest trial per (graph, threads).
func BestSeconds(records []Record) map[string]map[int]float64 {
	best := map[string]map[int]float64{}
	for _, r := range records {
		m, ok := best[r.Graph]
		if !ok {
			m = map[int]float64{}
			best[r.Graph] = m
		}
		if cur, ok := m[r.Threads]; !ok || r.Seconds < cur {
			m[r.Threads] = r.Seconds
		}
	}
	return best
}

// graphsOf returns the distinct graph names in input order.
func graphsOf(records []Record) []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range records {
		if !seen[r.Graph] {
			seen[r.Graph] = true
			names = append(names, r.Graph)
		}
	}
	return names
}

// threadsOf returns the distinct sorted thread counts.
func threadsOf(records []Record) []int {
	seen := map[int]bool{}
	for _, r := range records {
		seen[r.Threads] = true
	}
	var ts []int
	for t := range seen {
		ts = append(ts, t)
	}
	sort.Ints(ts)
	return ts
}

// RenderTimeTable prints the Figure 1 data: best execution time (seconds)
// per thread count and graph.
func RenderTimeTable(w io.Writer, records []Record) error {
	best := BestSeconds(records)
	graphs := graphsOf(records)
	threads := threadsOf(records)
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprint(tw, "threads")
	for _, g := range graphs {
		fmt.Fprintf(tw, "\t%s (s)", g)
	}
	fmt.Fprintln(tw)
	for _, t := range threads {
		fmt.Fprintf(tw, "%d", t)
		for _, g := range graphs {
			if s, ok := best[g][t]; ok {
				fmt.Fprintf(tw, "\t%.3f", s)
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Speedups returns speed-up relative to the best single-thread time per
// graph, the quantity Figures 2 and 3 plot.
func Speedups(records []Record) map[string]map[int]float64 {
	best := BestSeconds(records)
	out := map[string]map[int]float64{}
	for g, byT := range best {
		base, ok := byT[1]
		if !ok {
			continue
		}
		m := map[int]float64{}
		for t, s := range byT {
			m[t] = base / s
		}
		out[g] = m
	}
	return out
}

// RenderSpeedupTable prints the Figure 2/3 data: parallel speed-up per
// thread count and graph, with the best speed-up flagged per graph.
func RenderSpeedupTable(w io.Writer, records []Record) error {
	sp := Speedups(records)
	graphs := graphsOf(records)
	threads := threadsOf(records)
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprint(tw, "threads")
	for _, g := range graphs {
		fmt.Fprintf(tw, "\t%s (x)", g)
	}
	fmt.Fprintln(tw)
	for _, t := range threads {
		fmt.Fprintf(tw, "%d", t)
		for _, g := range graphs {
			if s, ok := sp[g][t]; ok {
				fmt.Fprintf(tw, "\t%.2f", s)
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	for _, g := range graphs {
		bestT, bestS := 0, math.Inf(-1)
		for t, s := range sp[g] {
			if s > bestS {
				bestT, bestS = t, s
			}
		}
		if bestT != 0 {
			fmt.Fprintf(tw, "# %s: best speed-up %.2fx at %d threads\n", g, bestS, bestT)
		}
	}
	return tw.Flush()
}

// RenderRateTable prints the Table III data: peak processing rate in input
// edges per second over the fastest run per graph.
func RenderRateTable(w io.Writer, records []Record) error {
	graphs := graphsOf(records)
	type peak struct {
		rate    float64
		threads int
	}
	best := map[string]peak{}
	for _, r := range records {
		if p, ok := best[r.Graph]; !ok || r.EdgesPerSec > p.rate {
			best[r.Graph] = peak{r.EdgesPerSec, r.Threads}
		}
	}
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tpeak edges/sec\tat threads")
	for _, g := range graphs {
		p := best[g]
		fmt.Fprintf(tw, "%s\t%.3g\t%d\n", g, p.rate, p.threads)
	}
	return tw.Flush()
}

// RenderEngineTable prints the speed-by-quality matrix across detection
// engines: for each (graph, engine) group the fastest trial's wall time and
// rate, that run's modularity and community count, and the wall-time speedup
// over the matching engine on the same graph (the ensemble's acceptance
// metric). Records missing an engine label (pre-engine CSVs) group under
// "matching".
func RenderEngineTable(w io.Writer, records []Record) error {
	type key struct{ graph, engine string }
	best := map[key]Record{}
	var engines []string
	seenEng := map[string]bool{}
	for _, r := range records {
		if r.Engine == "" {
			r.Engine = "matching"
		}
		k := key{r.Graph, r.Engine}
		if b, ok := best[k]; !ok || r.Seconds < b.Seconds {
			best[k] = r
		}
		if !seenEng[r.Engine] {
			seenEng[r.Engine] = true
			engines = append(engines, r.Engine)
		}
	}
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tengine\tbest (s)\tedges/sec\tmodularity\tcommunities\tvs matching")
	for _, g := range graphsOf(records) {
		base, haveBase := best[key{g, "matching"}]
		for _, e := range engines {
			r, ok := best[key{g, e}]
			if !ok {
				continue
			}
			speedup := "-"
			if haveBase && r.Seconds > 0 {
				speedup = fmt.Sprintf("%.2fx", base.Seconds/r.Seconds)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.3g\t%.4f\t%d\t%s\n",
				g, e, r.Seconds, r.EdgesPerSec, r.Modularity, r.Communities, speedup)
		}
	}
	return tw.Flush()
}

// WriteCSV emits every record as CSV with a header, for external plotting.
func WriteCSV(w io.Writer, records []Record) error {
	if _, err := fmt.Fprintln(w,
		"graph,vertices,edges,threads,engine,trial,seconds,edges_per_sec,phases,communities,coverage,modularity,termination,score_sec,match_sec,contract_sec"); err != nil {
		return err
	}
	for _, r := range records {
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%s,%d,%.6f,%.1f,%d,%d,%.6f,%.6f,%s,%.6f,%.6f,%.6f\n",
			r.Graph, r.Vertices, r.Edges, r.Threads, r.Engine, r.Trial, r.Seconds, r.EdgesPerSec,
			r.Phases, r.Communities, r.Coverage, r.Modularity, r.Termination,
			r.ScoreSec, r.MatchSec, r.ContractSec); err != nil {
			return err
		}
	}
	return nil
}

// RenderKernelTable prints the per-kernel breakdown the paper's Figures 4–6
// report per platform, on the thread-count axis: for each graph and thread
// count, the fastest trial's seconds split into score/match/contract and the
// unattributed remainder.
func RenderKernelTable(w io.Writer, records []Record) error {
	type key struct {
		graph   string
		threads int
	}
	best := map[key]Record{}
	for _, r := range records {
		k := key{r.Graph, r.Threads}
		if cur, ok := best[k]; !ok || r.Seconds < cur.Seconds {
			best[k] = r
		}
	}
	graphs := graphsOf(records)
	threads := threadsOf(records)
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\tthreads\tscore (s)\tmatch (s)\tcontract (s)\tother (s)\ttotal (s)")
	for _, g := range graphs {
		for _, t := range threads {
			r, ok := best[key{g, t}]
			if !ok {
				continue
			}
			other := r.Seconds - r.ScoreSec - r.MatchSec - r.ContractSec
			if other < 0 {
				other = 0
			}
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n",
				g, t, r.ScoreSec, r.MatchSec, r.ContractSec, other, r.Seconds)
		}
	}
	return tw.Flush()
}

// RenderPhaseTable prints one detection run's per-phase kernel breakdown —
// the cmd/communities -stats view of core.Result.Stats.
func RenderPhaseTable(w io.Writer, stats []core.PhaseStats) error {
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\t|V|\t|E|\tcoverage\tmodularity\tpairs\tpasses\tscore (ms)\tmatch (ms)\tcontract (ms)\tmax bucket")
	var score, match, contract time.Duration
	for _, st := range stats {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.4f\t%.4f\t%d\t%d\t%.2f\t%.2f\t%.2f\t%d\n",
			st.Phase, st.Vertices, st.Edges, st.Coverage, st.Modularity,
			st.MatchedPairs, st.MatchPasses,
			float64(st.ScoreTime.Microseconds())/1e3,
			float64(st.MatchTime.Microseconds())/1e3,
			float64(st.ContractTime.Microseconds())/1e3,
			st.MaxBucketLen)
		score += st.ScoreTime
		match += st.MatchTime
		contract += st.ContractTime
	}
	fmt.Fprintf(tw, "total\t\t\t\t\t\t\t%.2f\t%.2f\t%.2f\t\n",
		float64(score.Microseconds())/1e3,
		float64(match.Microseconds())/1e3,
		float64(contract.Microseconds())/1e3)
	return tw.Flush()
}

// RenderConvergenceTable prints the convergence ledger's per-level rows —
// the cmd/communities -convergence view: how fast the agglomeration merged,
// how the metric moved, how the matching drained, and whether the per-level
// schedule stayed inside its analytic imbalance bound. Warnings print after
// the table so an anomalous run is visible without reading every row.
func RenderConvergenceTable(w io.Writer, levels []obs.LevelStats, warnings []obs.Warning) error {
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stage\tlevel\t|V|\t|E|\tpos edges\tpairs\tmerged\tmerge%\tmetric\tΔmetric\tpasses\tchg/active\thub%\timbalance\tbound")
	var merged int64
	for _, st := range levels {
		stage := obs.StageOf(st)
		if stage == obs.StagePLP {
			// A PLP sweep merges nothing and carries no metric: it moves
			// labels. Render the sweep counters and leave the agglomeration
			// columns blank instead of misreporting it as a contraction.
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t-\t-\t-\t-\t-\t-\t-\t%d/%d\t-\t-\t-\n",
				stage, st.Level, st.Vertices, st.Edges, st.Changed, st.Active)
			continue
		}
		if stage == obs.StageShard {
			// A shard row summarizes one shard's whole local detection:
			// subgraph size, vertices merged into local communities, cut
			// edges deferred to the stitch (shown in the pairs column), and
			// the shard's edge-load share over the even share. Its local
			// modularity is against shard-local weight, so no metric.
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t-\tcut %d\t%d\t%.1f\t-\t-\t-\t-\t-\t%.2f\t-\n",
				stage, st.Shard, st.Vertices, st.Edges, st.CutEdges,
				st.MergedVertices, 100*st.MergeFraction, st.SchedImbalance)
			merged += st.MergedVertices
			continue
		}
		imb, bound := "-", "-"
		if st.SchedImbalance > 0 {
			imb = fmt.Sprintf("%.2f", st.SchedImbalance)
			bound = fmt.Sprintf("%.2f", st.SchedBound)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\t%.4f\t%+.4f\t%d\t-\t%.1f\t%s\t%s\n",
			stage, st.Level, st.Vertices, st.Edges, st.PositiveEdges, st.MatchedPairs,
			st.MergedVertices, 100*st.MergeFraction, st.Metric, st.MetricDelta,
			st.MatchPasses, 100*st.HubShare, imb, bound)
		merged += st.MergedVertices
	}
	fmt.Fprintf(tw, "total\t\t\t\t\t\t%d\t\t\t\t\t\t\t\t\n", merged)
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, wn := range warnings {
		if _, err := fmt.Fprintf(w, "warning: level %d: %s: %s\n", wn.Level, wn.Code, wn.Detail); err != nil {
			return err
		}
	}
	return nil
}

// RenderLatencyTable prints the recorder's latency-histogram snapshot: one
// row per non-empty class with its count, mean, p50/p90/p99 estimates, and
// max. Quantiles come from the log-linear buckets (see obs.LatencyHist), so
// they overshoot the true sample quantile by at most one sub-bucket width.
func RenderLatencyTable(w io.Writer, lats []obs.LatencyProfile) error {
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "latency class\tcount\tmean (ms)\tp50 (ms)\tp90 (ms)\tp99 (ms)\tmax (ms)")
	for _, lp := range lats {
		mean := 0.0
		if lp.Count > 0 {
			mean = lp.SumSec / float64(lp.Count)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\n",
			lp.Class, lp.Count, 1e3*mean, 1e3*lp.P50Sec, 1e3*lp.P90Sec, 1e3*lp.P99Sec, 1e3*lp.MaxSec)
	}
	return tw.Flush()
}

// PlatformTable prints the Table I stand-in: the characteristics of the
// present host in place of the paper's five platforms.
func PlatformTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "property\tvalue")
	fmt.Fprintf(tw, "OS/arch\t%s/%s\n", runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(tw, "logical CPUs\t%d\n", runtime.NumCPU())
	fmt.Fprintf(tw, "GOMAXPROCS\t%d\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(tw, "Go version\t%s\n", runtime.Version())
	return tw.Flush()
}

// GraphTable prints the Table II stand-in: |V| and |E| per benchmark graph.
func GraphTable(w io.Writer, rows []GraphInfo) error {
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "graph\t|V|\t|E|\tavg degree")
	for _, r := range rows {
		avg := 0.0
		if r.Vertices > 0 {
			avg = 2 * float64(r.Edges) / float64(r.Vertices)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.1f\n", r.Name, r.Vertices, r.Edges, avg)
	}
	return tw.Flush()
}

// GraphInfo is one Table II row. It is the report package's graph summary —
// the two packages used to carry parallel copies of this struct; report owns
// the single definition now.
type GraphInfo = report.GraphInfo

// Info summarizes a graph for GraphTable; it delegates to report.Info so
// the row carries the total weight too.
func Info(name string, g *graph.Graph) GraphInfo {
	return report.Info(name, g)
}
