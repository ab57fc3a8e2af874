package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the Prometheus golden file")

// promNormalizers strip the host- and history-dependent parts of the
// exposition so the rest golden-tests byte-for-byte: the toolchain version,
// the recorder's wall-clock uptime, the process-global flight totals, and any
// registered sources (exec's pool counters register when the external test
// package links core in, and their values depend on test order).
var promNormalizers = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`go_version="[^"]*"`), `go_version="GO"`},
	{regexp.MustCompile(`git_sha="[^"]*"`), `git_sha="SHA"`},
	{regexp.MustCompile(`(?m)^community_recorder_uptime_seconds .*$`), `community_recorder_uptime_seconds 0`},
	{regexp.MustCompile(`(?m)^(community_flight_(?:events|dropped)_total) .*$`), `$1 0`},
	{regexp.MustCompile(`(?m)^(community_exec_[a-z_]+) .*$`), `$1 0`},
	// Doctor gauges and capture counts reflect whatever other tests in the
	// process published (SetLiveVerdict, profiler captures) — zero them.
	{regexp.MustCompile(`(?m)^(community_doctor_[a-z_]+) .*$`), `$1 0`},
	{regexp.MustCompile(`(?m)^(community_profiles_captured_total) .*$`), `$1 0`},
}

func normalizeProm(s string) string {
	for _, n := range promNormalizers {
		s = n.re.ReplaceAllString(s, n.repl)
	}
	return s
}

// goldenRecorder builds a recorder with fully deterministic counters and
// latency observations and no wall-clock spans.
func goldenRecorder() *Recorder {
	r := New()
	r.Add(CtrMatchRounds, 4)
	r.Add(CtrMatchClaims, 123)
	r.Add(CtrContractEdgesIn, 1000)
	r.Add(CtrContractEdgesOut, 250)
	r.ObserveLatency(KernelDetect, 50_000_000) // 50ms
	r.ObserveLatency(KernelLevel, 10_000_000)
	r.ObserveLatency(KernelLevel, 20_000_000)
	r.ObserveLatency(KernelScore, 2_000_000)
	r.ObserveLatency(KernelMatch, 3_000_000)
	r.ObserveLatency(KernelContract, 5_000_000)
	return r
}

func goldenLedger() *Ledger {
	l := NewLedger()
	l.Record(LevelStats{Level: 0, Vertices: 1000, OutVertices: 600, Edges: 5000, Metric: 0.30, Coverage: 0.5})
	l.Record(LevelStats{Level: 1, Vertices: 600, OutVertices: 420, Edges: 2600, Metric: 0.42, Coverage: 0.6})
	return l
}

// TestWritePrometheusGolden pins the full exposition document against
// testdata/prom_golden.txt. Regenerate with: go test ./internal/obs -run
// TestWritePrometheusGolden -update
func TestWritePrometheusGolden(t *testing.T) {
	rt := &RuntimeStats{
		TimeNS: 1, Goroutines: 7, HeapAllocB: 1 << 20, HeapObjects: 4096,
		SysB: 1 << 22, NextGCB: 1 << 21, GCCycles: 3, GCPauseSec: 0.001,
	}
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, goldenRecorder(), goldenLedger(), rt); err != nil {
		t.Fatal(err)
	}
	got := normalizeProm(buf.String())

	path := filepath.Join("testdata", "prom_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusFormat checks structural validity independent of the
// golden bytes: every sample's family has TYPE and HELP, histogram buckets
// are cumulative with a +Inf terminator, and the document ends in a newline.
func TestWritePrometheusFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, goldenRecorder(), goldenLedger(), nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("document does not end in newline")
	}
	typed := map[string]string{}
	helped := map[string]bool{}
	var histSeries []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[f[2]] = f[3]
		case strings.HasPrefix(line, "# HELP "):
			f := strings.SplitN(line, " ", 4)
			if len(f) != 4 || f[3] == "" {
				t.Fatalf("malformed or empty HELP line %q", line)
			}
			helped[f[2]] = true
		default:
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			family := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if typed[strings.TrimSuffix(name, suffix)] == "histogram" {
					family = strings.TrimSuffix(name, suffix)
				}
			}
			if typed[family] == "" {
				t.Errorf("sample %q has no TYPE annotation", line)
			}
			if !helped[family] {
				t.Errorf("sample %q has no HELP annotation", line)
			}
			if strings.HasSuffix(name, "_bucket") {
				histSeries = append(histSeries, line)
			}
		}
	}
	// The acceptance criteria demand at least one counter, one gauge, one
	// histogram.
	var haveCounter, haveGauge, haveHist bool
	for _, typ := range typed {
		switch typ {
		case "counter":
			haveCounter = true
		case "gauge":
			haveGauge = true
		case "histogram":
			haveHist = true
		}
	}
	if !haveCounter || !haveGauge || !haveHist {
		t.Fatalf("exposition missing a family kind: counter=%v gauge=%v histogram=%v",
			haveCounter, haveGauge, haveHist)
	}
	// Buckets per class must be cumulative and end at +Inf.
	perClass := map[string][]string{}
	classRe := regexp.MustCompile(`class="([^"]+)"`)
	for _, line := range histSeries {
		m := classRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("bucket line without class label: %q", line)
		}
		perClass[m[1]] = append(perClass[m[1]], line)
	}
	for class, lines := range perClass {
		prev := int64(-1)
		for _, line := range lines {
			v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("bucket value unparseable in %q: %v", line, err)
			}
			if v < prev {
				t.Fatalf("class %s buckets not cumulative: %q after %d", class, line, prev)
			}
			prev = v
		}
		if !strings.Contains(lines[len(lines)-1], `le="+Inf"`) {
			t.Fatalf("class %s missing +Inf terminator: last line %q", class, lines[len(lines)-1])
		}
	}
}

// TestWritePrometheusNilArgs: all-nil arguments still render a valid
// document (runtime + flight sections only).
func TestWritePrometheusNilArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "community_go_goroutines") ||
		strings.Contains(out, "community_recorder_uptime_seconds") {
		t.Fatalf("nil-arg document wrong:\n%s", out)
	}
}

// TestPromLabelEscaping pins the exposition escaping rules.
func TestPromLabelEscaping(t *testing.T) {
	got := promLabel("k", "a\\b\"c\nd")
	want := `{k="a\\b\"c\nd"}`
	if got != want {
		t.Fatalf("promLabel = %s, want %s", got, want)
	}
}

// TestRegisterPromReplaces: re-registering under the same name replaces the
// source instead of duplicating the family.
func TestRegisterPromReplaces(t *testing.T) {
	RegisterPromCounter("community_test_replace_total", "Test source.", func() int64 { return 1 })
	RegisterPromCounter("community_test_replace_total", "Test source.", func() int64 { return 2 })
	defer func() { // unregister so the golden test never sees it
		promMu.Lock()
		defer promMu.Unlock()
		for i := range promSources {
			if promSources[i].name == "community_test_replace_total" {
				promSources = append(promSources[:i], promSources[i+1:]...)
				return
			}
		}
	}()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "# TYPE community_test_replace_total"); n != 1 {
		t.Fatalf("family appears %d times, want 1", n)
	}
	if !strings.Contains(buf.String(), "community_test_replace_total 2\n") {
		t.Fatal("replacement did not take the latest value")
	}
}
