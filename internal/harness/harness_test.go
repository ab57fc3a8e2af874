package harness

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
)

func TestThreadSeries(t *testing.T) {
	cases := []struct {
		max  int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{3, []int{1, 2, 3}},
		{8, []int{1, 2, 4, 8}},
		{12, []int{1, 2, 4, 8, 12}},
		{0, []int{1}},
	}
	for _, c := range cases {
		got := ThreadSeries(c.max)
		if len(got) != len(c.want) {
			t.Fatalf("ThreadSeries(%d) = %v, want %v", c.max, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ThreadSeries(%d) = %v, want %v", c.max, got, c.want)
			}
		}
	}
}

func sweepSmall(t *testing.T) []Record {
	t.Helper()
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(800, 5))
	if err != nil {
		t.Fatal(err)
	}
	recs, err := Sweep(g, "lj-sim", Config{
		Threads: []int{1, 2},
		Trials:  2,
		Options: core.Options{MinCoverage: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestSweepProducesRecords(t *testing.T) {
	recs := sweepSmall(t)
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for _, r := range recs {
		if r.Seconds <= 0 || r.EdgesPerSec <= 0 {
			t.Fatalf("non-positive timing: %+v", r)
		}
		if r.Graph != "lj-sim" || r.Vertices != 800 {
			t.Fatalf("bad metadata: %+v", r)
		}
		if r.Communities < 1 || r.Phases < 1 {
			t.Fatalf("implausible result: %+v", r)
		}
		if r.Termination == "" {
			t.Fatalf("missing termination: %+v", r)
		}
	}
}

func TestBestSecondsAndSpeedups(t *testing.T) {
	recs := []Record{
		{Graph: "a", Threads: 1, Seconds: 10},
		{Graph: "a", Threads: 1, Seconds: 12},
		{Graph: "a", Threads: 4, Seconds: 3},
		{Graph: "a", Threads: 4, Seconds: 2.5},
	}
	best := BestSeconds(recs)
	if best["a"][1] != 10 || best["a"][4] != 2.5 {
		t.Fatalf("best = %v", best)
	}
	sp := Speedups(recs)
	if sp["a"][4] != 4 {
		t.Fatalf("speedup = %v, want 4", sp["a"][4])
	}
	if sp["a"][1] != 1 {
		t.Fatalf("speedup at 1 thread = %v", sp["a"][1])
	}
}

func TestSpeedupsSkipGraphsWithoutBaseline(t *testing.T) {
	recs := []Record{{Graph: "b", Threads: 2, Seconds: 1}}
	if sp := Speedups(recs); len(sp) != 0 {
		t.Fatalf("speedups without 1-thread baseline: %v", sp)
	}
}

func TestRenderers(t *testing.T) {
	recs := sweepSmall(t)
	var buf bytes.Buffer
	if err := RenderTimeTable(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "lj-sim") || !strings.Contains(buf.String(), "threads") {
		t.Fatalf("time table:\n%s", buf.String())
	}
	buf.Reset()
	if err := RenderSpeedupTable(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "best speed-up") {
		t.Fatalf("speedup table:\n%s", buf.String())
	}
	buf.Reset()
	if err := RenderRateTable(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "peak edges/sec") {
		t.Fatalf("rate table:\n%s", buf.String())
	}
	buf.Reset()
	if err := PlatformTable(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "GOMAXPROCS") {
		t.Fatalf("platform table:\n%s", buf.String())
	}
}

func TestWriteCSV(t *testing.T) {
	recs := sweepSmall(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(recs)+1 {
		t.Fatalf("%d CSV lines for %d records", len(lines), len(recs))
	}
	if !strings.HasPrefix(lines[0], "graph,vertices,edges,threads") {
		t.Fatalf("header: %q", lines[0])
	}
	if !strings.Contains(lines[0], ",engine,") {
		t.Fatalf("header missing engine column: %q", lines[0])
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != 15 {
			t.Fatalf("bad CSV row: %q", l)
		}
		if !strings.Contains(l, ",matching,") {
			t.Fatalf("row missing engine value: %q", l)
		}
	}
}

func TestRenderKernelTable(t *testing.T) {
	recs := sweepSmall(t)
	var buf bytes.Buffer
	if err := RenderKernelTable(&buf, recs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "score (s)") || !strings.Contains(out, "contract (s)") ||
		!strings.Contains(out, "lj-sim") {
		t.Fatalf("kernel table:\n%s", out)
	}
	// One breakdown row per distinct thread count plus the header.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("kernel table has %d lines, want 3:\n%s", len(lines), out)
	}
	// The kernel totals the sweep recorded must not exceed the wall time.
	for _, r := range recs {
		if sum := r.ScoreSec + r.MatchSec + r.ContractSec; sum > r.Seconds {
			t.Fatalf("kernel seconds %v exceed wall %v", sum, r.Seconds)
		}
	}
}

func TestRenderPhaseTable(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(400, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DetectContext(context.Background(), g, core.Options{MinCoverage: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderPhaseTable(&buf, res.Stats); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "score (ms)") || !strings.Contains(out, "total") {
		t.Fatalf("phase table:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(res.Stats)+2 {
		t.Fatalf("phase table has %d lines for %d phases:\n%s", len(lines), len(res.Stats), out)
	}
}

func TestGraphTable(t *testing.T) {
	g := gen.Ring(10)
	var buf bytes.Buffer
	if err := GraphTable(&buf, []GraphInfo{Info("ring", g)}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ring") || !strings.Contains(buf.String(), "10") {
		t.Fatalf("graph table:\n%s", buf.String())
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Trials != 3 {
		t.Fatalf("trials = %d, want 3 (paper's methodology)", cfg.Trials)
	}
	if cfg.Options.MinCoverage != 0.5 {
		t.Fatalf("coverage target = %v, want 0.5", cfg.Options.MinCoverage)
	}
	if len(cfg.Threads) == 0 || cfg.Threads[0] != 1 {
		t.Fatalf("thread series = %v", cfg.Threads)
	}
}

func TestSweepPropagatesEngineErrors(t *testing.T) {
	g := gen.Ring(10)
	_, err := Sweep(g, "ring", Config{
		Threads: []int{1},
		Trials:  1,
		Options: core.Options{MinCoverage: 2}, // invalid
	})
	if err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestSweepDefaults(t *testing.T) {
	g := gen.CliqueChain(4, 4)
	recs, err := Sweep(g, "chain", Config{}) // zero config: defaults kick in
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records with default config")
	}
	if recs[0].Threads != 1 {
		t.Fatalf("default sweep should start at 1 thread, got %d", recs[0].Threads)
	}
}

func TestRenderConvergenceTable(t *testing.T) {
	levels := []obs.LevelStats{
		{Level: 0, Vertices: 100, Edges: 400, PositiveEdges: 390, MatchedPairs: 40,
			MergedVertices: 40, MergeFraction: 0.4, Metric: 0.1, MatchPasses: 3,
			HubShare: 0.02, SchedImbalance: 1.05, SchedBound: 1.0},
		{Level: 1, Vertices: 60, Edges: 250, PositiveEdges: 200, MatchedPairs: 15,
			MergedVertices: 15, MergeFraction: 0.25, Metric: 0.3, MetricDelta: 0.2,
			MatchPasses: 2, HubShare: 0.05},
	}
	warnings := []obs.Warning{{Level: 1, Code: obs.WarnMatchingStall, Detail: "no progress"}}
	var buf bytes.Buffer
	if err := RenderConvergenceTable(&buf, levels, warnings); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header + 2 rows + total + 1 warning.
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines, want 5:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "merge%") || !strings.Contains(lines[0], "imbalance") {
		t.Fatalf("header missing columns: %q", lines[0])
	}
	// The total row carries the merged-vertex sum.
	if !strings.Contains(lines[3], "55") {
		t.Fatalf("total row missing merged sum: %q", lines[3])
	}
	// Levels without a built schedule render "-" instead of a bogus 0.
	if !strings.Contains(lines[2], "-") {
		t.Fatalf("serial level should render dashes: %q", lines[2])
	}
	if !strings.Contains(lines[4], "matching-stall") {
		t.Fatalf("warning line missing: %q", lines[4])
	}
}

func TestRenderConvergenceTableStages(t *testing.T) {
	// Ensemble-run ledger rows: PLP sweeps render under the stage column with
	// their changed/active counters and dashes for the agglomeration columns,
	// instead of being misreported as contraction levels.
	levels := []obs.LevelStats{
		{Stage: obs.StagePLP, Level: 0, Vertices: 100, Edges: 400, Active: 100, Changed: 70},
		{Stage: obs.StagePLP, Level: 1, Vertices: 100, Edges: 400, Active: 85, Changed: 20},
		{Stage: obs.StageCoarsen, Level: 0, Vertices: 100, Edges: 400,
			OutVertices: 30, OutEdges: 150, MergedVertices: 70, MergeFraction: 0.7,
			Metric: 0, MatchPasses: 2, Drain: []int64{100, 85}},
		{Level: 1, Vertices: 30, Edges: 150, PositiveEdges: 120, MatchedPairs: 10,
			MergedVertices: 10, MergeFraction: 0.33, Metric: 0.2, MatchPasses: 2},
	}
	var buf bytes.Buffer
	if err := RenderConvergenceTable(&buf, levels, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 { // header + 4 rows + total
		t.Fatalf("rendered %d lines, want 6:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "stage") || !strings.Contains(lines[0], "chg/active") {
		t.Fatalf("header missing stage/active columns: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "plp") || !strings.Contains(lines[1], "70/100") {
		t.Fatalf("plp sweep row: %q", lines[1])
	}
	if !strings.HasPrefix(lines[3], "coarsen") {
		t.Fatalf("coarsen row: %q", lines[3])
	}
	// The legacy empty stage renders as match, and the total counts only
	// agglomeration merges plus the coarsen collapse.
	if !strings.HasPrefix(lines[4], "match") {
		t.Fatalf("match row: %q", lines[4])
	}
	if !strings.Contains(lines[5], "80") {
		t.Fatalf("total row should sum coarsen+match merges: %q", lines[5])
	}
}

func TestRenderEngineTable(t *testing.T) {
	recs := []Record{
		{Graph: "rmat", Engine: "matching", Trial: 0, Seconds: 0.30, EdgesPerSec: 1e6, Modularity: 0.20, Communities: 16},
		{Graph: "rmat", Engine: "matching", Trial: 1, Seconds: 0.36, EdgesPerSec: 0.9e6, Modularity: 0.20, Communities: 16},
		{Graph: "rmat", Engine: "ensemble", Trial: 0, Seconds: 0.10, EdgesPerSec: 3e6, Modularity: 0.22, Communities: 10},
		{Graph: "lj", Engine: "matching", Trial: 0, Seconds: 0.50, EdgesPerSec: 2e6, Modularity: 0.52, Communities: 19},
	}
	var buf bytes.Buffer
	if err := RenderEngineTable(&buf, recs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "vs matching") || !strings.Contains(out, "ensemble") {
		t.Fatalf("engine table:\n%s", out)
	}
	// Ensemble best 0.10s vs matching best 0.30s on rmat: 3.00x.
	if !strings.Contains(out, "3.00x") {
		t.Fatalf("missing speedup column:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + rmat x2 + lj x1
		t.Fatalf("engine table has %d lines, want 4:\n%s", len(lines), out)
	}
}
