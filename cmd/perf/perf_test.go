package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// smokeSizes run every workload in about a second.
var smokeSizes = sizes{rmatScale: 10, ljVertices: 2000, streamScale: 10}

func smokeConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 1, trace: trace, sizes: smokeSizes, minReps: 2, dir: t.TempDir()}
}

func smokeRun(t *testing.T, cfg config) *runResult {
	t.Helper()
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// declaration is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSmokeEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	decl := readDeclaration(t)
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark runs %v", names, ours)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := decl.EndToEnd
			if trace {
				want = decl.PerLayer
			}
			res := smokeRun(t, smokeConfig(t, w.name, trace))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w.name, trace, res.Correct, res.Attempted, res.Failed, res.errs)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: no metric %s", w.name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: %s in %q, declared %q", w.name, trace, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w.name, trace, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, m.Value)
				case trace && strings.HasSuffix(d.Name, ".share") && (m.Value < 0 || m.Value > 1):
					t.Errorf("%s: %s = %v outside [0,1]", w.name, d.Name, m.Value)
				}
			}
			if trace && res.Metrics["core.other_s"].Value < 0 {
				t.Errorf("%s: the kernel rows exceed the op wall (core.other_s = %v)", w.name, res.Metrics["core.other_s"].Value)
			}
			if _, err := json.Marshal(res.result); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
		}
	}
}

func TestChecksCatchTamperedOutput(t *testing.T) {
	for _, tc := range []struct {
		name, workload string
		tamper         tamper
	}{
		{"partition", "rmat-agglom", tamper{partition: true}},
		{"partition/churn", "lj-churn", tamper{partition: true}},
		{"partition/outofcore", "rmat-outofcore", tamper{partition: true}},
		{"modularity", "lj-ensemble", tamper{modularity: true}},
		{"modularity/churn", "lj-churn", tamper{modularity: true}},
		{"overlay edge", "lj-churn", tamper{edge: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smokeConfig(t, tc.workload, false)
			cfg.tamper = tc.tamper
			res := smokeRun(t, cfg)
			if res.Failed == 0 || res.Correct || exitCode(res) == 0 {
				t.Errorf("tampered run: correct=%v failed=%d exit=%d", res.Correct, res.Failed, exitCode(res))
			}
		})
	}
}

func TestUnknownWorkloadExitsWithoutResult(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := benchMain([]string{"--workload", "nope", "--seed", "1"}, &stdout, &stderr); code == 0 {
		t.Errorf("exit %d, want non-zero", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("printed %q to stdout", stdout.String())
	}
}

func TestSampleCounts(t *testing.T) {
	res := smokeRun(t, smokeConfig(t, "rmat-agglom", false))
	want := samples{Setup: 15, Warmup: 2, Ops2T: 2, Ops1T: 1}
	if res.samples != want || res.Attempted != 5 || len(res.op2T) != 2 || len(res.speedups) != 1 {
		t.Errorf("untraced: samples %+v attempted %d op2T %d triplets %d, want %+v, 5, 2, 1",
			res.samples, res.Attempted, len(res.op2T), len(res.speedups), want)
	}
	res = smokeRun(t, smokeConfig(t, "rmat-agglom", true))
	want = samples{Setup: 15, Warmup: 1, Ops2T: 2, Traced: 2}
	if res.samples != want || res.Attempted != 5 {
		t.Errorf("traced: samples %+v attempted %d, want %+v, 5", res.samples, res.Attempted, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64 // statistics.quantiles(xs, n=4)
	}{
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
		{nil, [3]float64{}},
	} {
		in := append([]float64(nil), tc.xs...)
		if got := quartiles(tc.xs); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
		if !reflect.DeepEqual(in, tc.xs) {
			t.Errorf("quartiles reordered its input: %v", tc.xs)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n, perMille int
		v           float64
		ok          bool
	}{
		{20, 0, 0, false},
		{99, 0, 0, false},
		{100, 900, 90, true},
		{1009, 990, 999, true},
		{10000, 999, 9990, true},
	} {
		p, v, ok := tail(seq(tc.n))
		if p != tc.perMille || v != tc.v || ok != tc.ok {
			t.Errorf("tail of %d samples = p%d %v %v, want p%d %v %v", tc.n, p, v, ok, tc.perMille, tc.v, tc.ok)
		}
	}
}

func TestSlotInterleavesThreadCounts(t *testing.T) {
	type s struct {
		threads int
		traced  bool
	}
	untraced := []s{{2, false}, {1, false}, {2, false}, {2, false}, {1, false}, {2, false}}
	traced := []s{{2, false}, {2, true}, {2, false}, {2, true}}
	for i, want := range untraced {
		if th, tr := slot(i, false); (s{th, tr}) != want {
			t.Errorf("untraced slot %d = %v, want %v", i, s{th, tr}, want)
		}
	}
	for i, want := range traced {
		if th, tr := slot(i, true); (s{th, tr}) != want {
			t.Errorf("traced slot %d = %v, want %v", i, s{th, tr}, want)
		}
	}
}
