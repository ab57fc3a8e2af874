package harness

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
)

func TestRenderLatencyTable(t *testing.T) {
	rec := obs.New()
	rec.ObserveLatency(obs.KernelDetect, 50_000_000)
	rec.ObserveLatency(obs.KernelLevel, 10_000_000)
	rec.ObserveLatency(obs.KernelLevel, 20_000_000)
	var buf bytes.Buffer
	if err := RenderLatencyTable(&buf, rec.Latencies()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"latency class", "p99 (ms)", "detect", "level"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 { // header + two classes
		t.Fatalf("table has %d lines, want 3:\n%s", len(lines), out)
	}
}

func TestRenderLatencyTableEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderLatencyTable(&buf, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFlushCrash drives the shared crash path end to end: black-box dump,
// partial trace, and "partial" manifest all land, and the call survives
// all-zero artifacts (a crash before any recorder exists). The flight
// artifact must also carry the crash-time doctor context: the live verdict
// and the most recent archived profile, so a post-mortem starts from "what
// did the doctor already know".
func TestFlushCrash(t *testing.T) {
	obs.Flight().Reset()
	defer obs.Flight().Reset()
	obs.Flight().Record(obs.FlightMark, "test", "before-crash", "", 0)

	defer obs.SetLiveVerdict(nil)
	obs.SetLiveVerdict(&obs.Verdict{
		Status: obs.VerdictAnomalous, Key: "unit engine=matching threads=2 shards=0",
		BaselineRuns: 4, MaxAbsZ: 9.5,
		Findings: []obs.DriftFinding{{Metric: "total_sec", Value: 3, Median: 1, Z: 9.5, Ratio: 3, Regression: true}},
	})

	dir := t.TempDir()
	prof := obs.NewProfiler(obs.ProfilerOptions{Dir: filepath.Join(dir, "profiles")})
	profPath, err := prof.CaptureHeap("crash-test")
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	rec.ObserveLatency(obs.KernelDetect, 1<<22)
	sp := rec.Begin(obs.KernelScore)
	sp.End()
	led := obs.NewLedger()
	led.Record(obs.LevelStats{Level: 0, Vertices: 10, OutVertices: 6, Edges: 40, Metric: 0.2})

	tracePath := filepath.Join(dir, "trace.json")
	ledgerPath := filepath.Join(dir, "ledger.jsonl")
	FlushCrash("partial", CrashArtifacts{
		Rec:        rec,
		Led:        led,
		TraceOut:   tracePath,
		LedgerPath: ledgerPath,
		Graph:      report.GraphInfo{Name: "unit", Vertices: 10, Edges: 40},
		Options:    core.Options{Threads: 2},
		FlightDir:  dir,
		Log:        slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil)),
	})

	if raw, err := os.ReadFile(tracePath); err != nil || !json.Valid(raw) {
		t.Fatalf("partial trace missing or invalid: err=%v", err)
	}

	flights, err := filepath.Glob(filepath.Join(dir, "flight_*.json"))
	if err != nil || len(flights) != 1 {
		t.Fatalf("flight artifacts = %v (err %v), want exactly one", flights, err)
	}
	var dump obs.FlightDump
	raw, err := os.ReadFile(flights[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("flight dump invalid: %v", err)
	}
	if dump.Reason != "partial" || len(dump.Events) == 0 {
		t.Fatalf("flight dump = reason %q with %d events", dump.Reason, len(dump.Events))
	}
	if dump.Verdict == nil || !dump.Verdict.Anomalous() || dump.Verdict.Regressions() != 1 {
		t.Fatalf("flight dump verdict = %+v, want the published anomalous verdict", dump.Verdict)
	}
	if dump.Profile != profPath {
		t.Fatalf("flight dump profile = %q, want the captured %q", dump.Profile, profPath)
	}

	f, err := os.Open(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ms, skipped, err := report.ReadManifests(f)
	if err != nil || len(ms) != 1 || skipped != 0 {
		t.Fatalf("manifests = %d, skipped %d (err %v), want 1 clean", len(ms), skipped, err)
	}
	m := ms[0]
	if m.Kind != "partial" || m.Graph.Name != "unit" || len(m.Levels) != 1 {
		t.Fatalf("manifest = %+v", m)
	}
	// The score span observes its own class when it closes.
	if len(m.Latencies) != 2 || m.Latencies[0].Class != "detect" || m.Latencies[1].Class != "score" {
		t.Fatalf("manifest latencies = %+v, want the detect and score classes", m.Latencies)
	}
	if len(m.Kernels) != 1 || m.Kernels[0].Kernel != "score" {
		t.Fatalf("manifest kernels = %+v", m.Kernels)
	}
}

func TestFlushCrashZeroArtifacts(t *testing.T) {
	dir := t.TempDir()
	FlushCrash("partial", CrashArtifacts{
		FlightDir: dir,
		Log:       slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil)),
	})
	flights, _ := filepath.Glob(filepath.Join(dir, "flight_*.json"))
	if len(flights) != 1 {
		t.Fatalf("zero-artifact crash wrote %d flight dumps, want 1", len(flights))
	}
}
