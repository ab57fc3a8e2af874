package report

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/scoring"
)

func TestSummarizeAndManifestRoundTrip(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(800, 1))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	opt := core.Options{Threads: 2, MinCoverage: 0.5, Recorder: rec}
	res, err := core.DetectContext(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManifest("run", Info("lj-sim-800", g), opt, rec, nil)
	m.Summary = Summarize(g, opt.Threads, res)
	if m.Graph.Name != "lj-sim-800" || m.Graph.Vertices != 800 {
		t.Fatalf("graph info %+v", m.Graph)
	}
	if m.Options.Scorer != "modularity" || m.Options.Matching != "worklist" {
		t.Fatalf("options %+v", m.Options)
	}
	if rec.Phases() != len(res.Stats) {
		t.Fatalf("recorder counted %d phases for %d stats", rec.Phases(), len(res.Stats))
	}
	if m.Summary.Communities != res.NumCommunities ||
		math.Abs(m.Summary.Modularity-res.FinalModularity) > 1e-12 {
		t.Fatalf("summary %+v", m.Summary)
	}
	if m.Summary.TotalSec <= 0 || m.Summary.EdgesPerSec <= 0 {
		t.Fatalf("timings %+v", m.Summary)
	}
	if m.Summary.MinSize < 1 || m.Summary.MaxSize < m.Summary.MedianSize || m.Summary.MedianSize < m.Summary.MinSize {
		t.Fatalf("size quality %+v", m.Summary)
	}

	line, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(line), `"termination"`) {
		t.Fatalf("JSON missing fields: %s", line[:200])
	}
	back := &Manifest{}
	if err := json.Unmarshal(line, back); err != nil {
		t.Fatal(err)
	}
	if back.Summary == nil || *back.Summary != *m.Summary || back.Graph != m.Graph {
		t.Fatal("round trip changed the run")
	}
	if back.Host == nil || back.Host.GoVersion == "" || back.Host.NumCPU < 1 {
		t.Fatalf("host did not survive the round trip: %+v", back.Host)
	}
	if len(back.Kernels) == 0 {
		t.Fatalf("kernel seconds did not survive the round trip: %+v", back.Kernels)
	}
	// The recorded kernel spans must roughly agree with the engine's own
	// per-phase timings (same intervals, measured a frame apart).
	var kernelSec float64
	for _, k := range back.Kernels {
		kernelSec += k.Seconds
	}
	var statSec float64
	for _, st := range res.Stats {
		statSec += (st.ScoreTime + st.MatchTime + st.ContractTime).Seconds()
	}
	if kernelSec < statSec*0.5 || kernelSec > statSec*2+0.01 {
		t.Fatalf("kernel span seconds %v disagree with phase stats %v", kernelSec, statSec)
	}
}

func TestInfo(t *testing.T) {
	g := gen.CliqueChain(3, 4)
	info := Info("chain", g)
	if info.Name != "chain" || info.Vertices != g.NumVertices() ||
		info.Edges != g.NumEdges() || info.Weight != g.TotalWeight(1) {
		t.Fatalf("Info = %+v", info)
	}
}

func TestCollectMeta(t *testing.T) {
	m := CollectMeta()
	if m.GoVersion == "" || m.GOOS == "" || m.GOARCH == "" || m.NumCPU < 1 || m.GOMAXPROCS < 1 {
		t.Fatalf("meta = %+v", m)
	}
}

func TestManifestCustomScorerName(t *testing.T) {
	m := NewManifest("run", Info("chain", gen.CliqueChain(3, 4)), core.Options{Threads: 1, Scorer: namedScorer{}}, nil, nil)
	if m.Options.Scorer != "custom" {
		t.Fatalf("scorer name %q", m.Options.Scorer)
	}
}

// namedScorer overrides only the name; scoring behavior is modularity's.
type namedScorer struct{ scoring.Modularity }

func (namedScorer) Name() string { return "custom" }

func TestManifestAppendAndRead(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(600, 3))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	led := obs.NewLedger()
	opt := core.Options{Threads: 2, Recorder: rec, Ledger: led}
	res, err := core.DetectContext(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "results", "ledger.jsonl")
	m := NewManifest("run", Info("lj-sim-600", g), opt, rec, led)
	m.Summary = Summarize(g, opt.Threads, res)
	if m.Kind != "run" || m.Host == nil || len(m.Levels) == 0 || len(m.Levels) != led.NumLevels() {
		t.Fatalf("manifest carries %d levels, ledger has %d: %+v", len(m.Levels), led.NumLevels(), m)
	}
	if len(m.Kernels) == 0 || len(m.Latencies) == 0 || m.Allocs == nil {
		t.Fatalf("manifest missing recorder fields: %d kernels, %d latency classes, allocs %v",
			len(m.Kernels), len(m.Latencies), m.Allocs)
	}
	// The doctor reads archived lines, so the manifest's JSON keys are a
	// file format: pin the set a completed, recorded run writes.
	var keys map[string]json.RawMessage
	line, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(line, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"kind", "time", "host", "graph", "options", "summary",
		"levels", "kernel_seconds", "latencies", "allocs"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("manifest JSON lacks key %q: %s", k, line)
		}
	}
	// Two appends accumulate two parseable lines (and MkdirAll creates the
	// results/ directory on first use).
	if err := AppendManifest(path, m); err != nil {
		t.Fatal(err)
	}
	if err := AppendManifest(path, m); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ms, skipped, err := ReadManifests(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || skipped != 0 {
		t.Fatalf("read %d manifests (%d skipped), want 2 clean", len(ms), skipped)
	}
	for _, got := range ms {
		if got.Graph.Vertices != 600 || got.Summary.Communities != res.NumCommunities {
			t.Fatalf("manifest round trip changed the run: %+v", got)
		}
		if len(got.Levels) != len(m.Levels) {
			t.Fatalf("manifest lost levels: %d vs %d", len(got.Levels), len(m.Levels))
		}
	}
	// Each line is standalone JSON: jq/grep-ability is the point.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("file holds %d lines, want 2", len(lines))
	}
	for _, ln := range lines {
		var one Manifest
		if err := json.Unmarshal([]byte(ln), &one); err != nil {
			t.Fatalf("line not standalone JSON: %v", err)
		}
	}
}

// TestReadManifestsTornLine is the satellite regression test: a manifest
// file whose trailing line was torn mid-write (interrupted O_APPEND on the
// crash path) must still yield every intact record, reporting the torn line
// as skipped instead of failing the file.
func TestReadManifestsTornLine(t *testing.T) {
	good := &Manifest{Kind: "run", Graph: GraphInfo{Name: "torn-test", Vertices: 10, Edges: 20}}
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	if err := AppendManifest(path, good); err != nil {
		t.Fatal(err)
	}
	if err := AppendManifest(path, good); err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-record: a complete second line, then a prefix of a
	// third with no terminator — exactly what an interrupted append leaves.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(full, []byte(`{"kind":"run","time":"2026-01-0`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	ms, skipped, err := ReadManifestFile(path)
	if err != nil {
		t.Fatalf("torn file failed outright: %v", err)
	}
	if len(ms) != 2 || skipped != 1 {
		t.Fatalf("torn file: %d manifests, %d skipped; want 2 and 1", len(ms), skipped)
	}
	for _, m := range ms {
		if m.Graph.Name != "torn-test" {
			t.Fatalf("intact record corrupted: %+v", m)
		}
	}

	// A torn line mid-file (a crashed writer racing a healthy one) resyncs
	// on the next newline and still yields the later intact records.
	lines := bytes.SplitAfter(full, []byte("\n"))
	mid := append([]byte(`{"kind":"partial","graph":`+"\n"), bytes.Join(lines, nil)...)
	if err := os.WriteFile(path, mid, 0o644); err != nil {
		t.Fatal(err)
	}
	ms, skipped, err = ReadManifestFile(path)
	if err != nil || len(ms) != 2 || skipped != 1 {
		t.Fatalf("mid-file tear: %d manifests, %d skipped (err %v); want 2 and 1", len(ms), skipped, err)
	}
}

// TestWriteManifestIsOneRunArchive pins WriteManifest to AppendManifest's
// bytes: the file it leaves is exactly the line an append would add, and a
// second write replaces the first rather than accumulating.
func TestWriteManifestIsOneRunArchive(t *testing.T) {
	dir := t.TempDir()
	a := &Manifest{Kind: "run", Graph: GraphInfo{Name: "a", Vertices: 10, Edges: 20}, Summary: &Summary{Communities: 3}}
	b := &Manifest{Kind: "run", Graph: GraphInfo{Name: "b", Vertices: 5, Edges: 4}}
	one, ledger := filepath.Join(dir, "run.json"), filepath.Join(dir, "ledger.jsonl")
	if err := WriteManifest(one, b); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(one, a); err != nil {
		t.Fatal(err)
	}
	if err := AppendManifest(ledger, a); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(one)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("written file %q differs from appended line %q", got, want)
	}
	ms, skipped, err := ReadManifestFile(one)
	if err != nil || skipped != 0 || len(ms) != 1 || ms[0].Graph.Name != "a" || ms[0].Summary.Communities != 3 {
		t.Fatalf("read back %d manifests (%d skipped, err %v), want the one run a", len(ms), skipped, err)
	}
}
