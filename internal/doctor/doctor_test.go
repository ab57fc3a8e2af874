package doctor

import (
	"math"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/report"
)

// mkRun synthesizes a manifest with a small, realistic amount of jitter
// around the given total seconds.
func mkRun(graph string, threads int, totalSec, modularity float64) *report.Manifest {
	return &report.Manifest{
		Kind:  "run",
		Graph: report.GraphInfo{Name: graph, Vertices: 1 << 14, Edges: 1 << 18},
		Options: report.Options{
			Engine: "matching", Threads: threads,
			Scorer: "modularity", Matching: "worklist", Contraction: "bucket",
		},
		Summary: &report.Summary{
			Communities: 900, Coverage: 0.8, Modularity: modularity,
			Termination: "coverage", TotalSec: totalSec,
			EdgesPerSec: float64(1<<18) / totalSec,
		},
		Kernels: []obs.KernelSeconds{
			{Kernel: "match", Seconds: totalSec * 0.3, Spans: 12},
			{Kernel: "contract", Seconds: totalSec * 0.6, Spans: 12},
		},
		Latencies: []obs.LatencyProfile{
			{Class: "detect", Count: 1, P50Sec: totalSec, P90Sec: totalSec, P99Sec: totalSec},
		},
		Allocs: &obs.AllocStats{Bytes: int64(totalSec * 1e9), Count: 1e6},
	}
}

// baseline5 is five archived runs with ~2% jitter — a healthy archive.
func baseline5() []*report.Manifest {
	var ms []*report.Manifest
	for _, s := range []float64{0.250, 0.252, 0.248, 0.255, 0.251} {
		ms = append(ms, mkRun("rmat-14-16", 8, s, 0.61))
	}
	return ms
}

func TestAssessCleanRunOK(t *testing.T) {
	b := Learn(baseline5())
	v := b.Assess(mkRun("rmat-14-16", 8, 0.253, 0.61), Options{})
	if v.Status != obs.VerdictOK {
		t.Fatalf("clean run: status %q, want %q (findings %+v)", v.Status, obs.VerdictOK, v.Findings)
	}
	if v.BaselineRuns != 5 {
		t.Fatalf("BaselineRuns = %d, want 5", v.BaselineRuns)
	}
	if v.Anomalous() {
		t.Fatal("clean run flagged anomalous")
	}
}

func TestAssessRegressionFlagged(t *testing.T) {
	b := Learn(baseline5())
	v := b.Assess(mkRun("rmat-14-16", 8, 0.75, 0.61), Options{}) // 3x slower
	if v.Status != obs.VerdictAnomalous {
		t.Fatalf("3x run: status %q, want anomalous", v.Status)
	}
	if v.Regressions() == 0 {
		t.Fatal("3x run produced no regression findings")
	}
	var total *obs.DriftFinding
	for i := range v.Findings {
		if v.Findings[i].Metric == "total_sec" {
			total = &v.Findings[i]
		}
	}
	if total == nil {
		t.Fatalf("no total_sec finding in %+v", v.Findings)
	}
	if !total.Regression {
		t.Fatal("total_sec slowdown not marked as regression")
	}
	if total.Ratio < 2.5 || total.Z < 4 {
		t.Fatalf("total_sec finding ratio %.2f z %.1f, want ratio ~3 and z >= threshold", total.Ratio, total.Z)
	}
	// Kernel seconds scaled with the run, so they must flag too.
	found := false
	for _, f := range v.Findings {
		if strings.HasPrefix(f.Metric, "kernel_seconds/") && f.Regression {
			found = true
		}
	}
	if !found {
		t.Fatalf("no kernel_seconds regression in %+v", v.Findings)
	}
}

func TestAssessNoBaseline(t *testing.T) {
	b := Learn(baseline5()[:2]) // below MinRuns
	v := b.Assess(mkRun("rmat-14-16", 8, 0.25, 0.61), Options{})
	if v.Status != obs.VerdictNoBaseline {
		t.Fatalf("status %q, want no-baseline", v.Status)
	}
	// Different key entirely (thread count differs) — also no baseline.
	b = Learn(baseline5())
	v = b.Assess(mkRun("rmat-14-16", 4, 0.25, 0.61), Options{})
	if v.Status != obs.VerdictNoBaseline {
		t.Fatalf("cross-key status %q, want no-baseline", v.Status)
	}
}

// TestHostsDoNotShareBaseline checks that the host shape and Go release
// are part of the key: runs archived on one host give no baseline for a run
// on another, and a manifest without host metadata keys as zero values.
func TestHostsDoNotShareBaseline(t *testing.T) {
	hostA := &report.Meta{GoVersion: "go1.24.0", NumCPU: 2, GOMAXPROCS: 2}
	onHost := func(h *report.Meta, totalSec float64) *report.Manifest {
		m := mkRun("rmat-14-16", 8, totalSec, 0.61)
		m.Host = h
		return m
	}
	var archive []*report.Manifest
	for _, s := range []float64{0.250, 0.252, 0.248, 0.255, 0.251} {
		archive = append(archive, onHost(hostA, s))
	}
	b := Learn(archive)
	if v := b.Assess(onHost(hostA, 0.253), Options{}); v.Status != obs.VerdictOK {
		t.Fatalf("same host: status %q, want ok", v.Status)
	}
	for name, h := range map[string]*report.Meta{
		"num_cpu":    {GoVersion: "go1.24.0", NumCPU: 64, GOMAXPROCS: 2},
		"gomaxprocs": {GoVersion: "go1.24.0", NumCPU: 2, GOMAXPROCS: 1},
		"go":         {GoVersion: "go1.23.4", NumCPU: 2, GOMAXPROCS: 2},
		"no host":    nil,
	} {
		if v := b.Assess(onHost(h, 0.75), Options{}); v.Status != obs.VerdictNoBaseline {
			t.Errorf("%s differs: status %q, want no-baseline", name, v.Status)
		}
	}
	if got, want := KeyOf(onHost(nil, 0.25)), KeyOf(mkRun("rmat-14-16", 8, 0.25, 0.61)); got != want || got.NumCPU != 0 || got.GoVersion != "" {
		t.Fatalf("nil host keys as %+v, want zero host fields", got)
	}
}

func TestAssessQualityDirection(t *testing.T) {
	b := Learn(baseline5())
	// Modularity collapsing is a regression even though the value went DOWN.
	head := mkRun("rmat-14-16", 8, 0.251, 0.25)
	v := b.Assess(head, Options{})
	var mod *obs.DriftFinding
	for i := range v.Findings {
		if v.Findings[i].Metric == "modularity" {
			mod = &v.Findings[i]
		}
	}
	if mod == nil {
		t.Fatalf("modularity collapse not flagged: %+v", v.Findings)
	}
	if !mod.Regression {
		t.Fatal("lower modularity not marked as regression")
	}
}

func TestAssessMinAbsSecFloor(t *testing.T) {
	// A 3x slowdown on a sub-millisecond run is jitter, not a finding.
	var ms []*report.Manifest
	for _, s := range []float64{0.0010, 0.0011, 0.0009, 0.0010, 0.0010} {
		ms = append(ms, mkRun("tiny", 8, s, 0.61))
	}
	v := Learn(ms).Assess(mkRun("tiny", 8, 0.0030, 0.61), Options{})
	for _, f := range v.Findings {
		if f.Metric == "total_sec" || strings.HasPrefix(f.Metric, "kernel_seconds/") ||
			strings.HasPrefix(f.Metric, "latency_p99/") {
			t.Fatalf("timing finding %q under the MinAbsSec floor: %+v", f.Metric, f)
		}
	}
}

func TestAssessSpeedupIsDriftNotRegression(t *testing.T) {
	b := Learn(baseline5())
	v := b.Assess(mkRun("rmat-14-16", 8, 0.080, 0.61), Options{}) // 3x faster
	if v.Status != obs.VerdictAnomalous {
		t.Fatalf("3x speedup: status %q, want anomalous (drift is surfaced)", v.Status)
	}
	for _, f := range v.Findings {
		if f.Metric == "total_sec" && f.Regression {
			t.Fatal("a speedup must not count as a regression")
		}
	}
	if v.Regressions() != 0 {
		// alloc_bytes scales with totalSec in mkRun, so it dropped too —
		// lower allocation is the good direction and must not regress.
		t.Fatalf("speedup produced %d regressions: %+v", v.Regressions(), v.Findings)
	}
}

func TestLearnIgnoresPartialManifests(t *testing.T) {
	ms := baseline5()
	partial := mkRun("rmat-14-16", 8, 9.9, 0.61)
	partial.Kind = "partial"
	noSummary := mkRun("rmat-14-16", 8, 9.9, 0.61)
	noSummary.Summary = nil
	ms = append(ms, partial, noSummary)
	b := Learn(ms)
	k := KeyOf(ms[0])
	if b.Runs[k] != 5 {
		t.Fatalf("Runs = %d, want 5 (partial and summary-less ignored)", b.Runs[k])
	}
	if med := b.Stats[k]["total_sec"].Median; math.Abs(med-0.251) > 1e-9 {
		t.Fatalf("median polluted by partials: %v", med)
	}
}

func TestAnalyzeLeaveLastOut(t *testing.T) {
	heads := append(baseline5(), mkRun("rmat-14-16", 8, 0.80, 0.61))
	rep := Analyze(nil, heads, Options{})
	if len(rep.Keys) != 1 {
		t.Fatalf("keys = %d, want 1", len(rep.Keys))
	}
	kr := rep.Keys[0]
	if kr.Runs != 5 {
		t.Fatalf("leave-last-out baseline = %d runs, want 5", kr.Runs)
	}
	if got := len(kr.Trend); got != 6 {
		t.Fatalf("trend length = %d, want 6 (5 archived + head)", got)
	}
	if !kr.Verdict.Anomalous() || rep.Regressions == 0 {
		t.Fatalf("3x head not flagged: verdict %+v, regressions %d", kr.Verdict, rep.Regressions)
	}

	var sb strings.Builder
	if err := rep.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"ANOMALOUS", "REGRESSION", "total_sec", "1 keys, "} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeExplicitBaseline(t *testing.T) {
	rep := Analyze(baseline5(), []*report.Manifest{mkRun("rmat-14-16", 8, 0.252, 0.61)}, Options{})
	if rep.Regressions != 0 {
		t.Fatalf("clean head against explicit baseline: %d regressions", rep.Regressions)
	}
	if rep.Keys[0].Verdict.Status != obs.VerdictOK {
		t.Fatalf("status = %q, want ok", rep.Keys[0].Verdict.Status)
	}
}
