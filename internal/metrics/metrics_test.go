package metrics_test

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/par"
)

func TestDensify(t *testing.T) {
	comm, k := metrics.Densify([]int64{7, 7, 3, 9, 3})
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	want := []int64{0, 0, 1, 2, 1}
	for i := range want {
		if comm[i] != want[i] {
			t.Fatalf("comm = %v, want %v", comm, want)
		}
	}
	if out, k := metrics.Densify(nil); len(out) != 0 || k != 0 {
		t.Fatal("empty input mishandled")
	}
}

func TestValidatePartition(t *testing.T) {
	if err := metrics.ValidatePartition([]int64{0, 1, 0}, 3, 2); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		comm []int64
		n, k int64
	}{
		{[]int64{0, 1}, 3, 2},    // wrong length
		{[]int64{0, 2, 0}, 3, 2}, // id out of range
		{[]int64{0, 0, 0}, 3, 2}, // community 1 empty
		{[]int64{0, -1, 1}, 3, 2},
	} {
		if err := metrics.ValidatePartition(c.comm, c.n, c.k); err == nil {
			t.Errorf("accepted %v", c)
		}
	}
}

func TestModularityKnownValues(t *testing.T) {
	// Two disjoint 3-cliques, partitioned by clique:
	// Q = Σ [3/6 − (6/12)²] = 2·(0.5 − 0.25) = 0.5.
	var edges []graph.Edge
	for b := int64(0); b < 2; b++ {
		for i := int64(0); i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				edges = append(edges, graph.Edge{U: 3*b + i, V: 3*b + j, W: 1})
			}
		}
	}
	g := graph.MustBuild(1, 6, edges)
	comm := []int64{0, 0, 0, 1, 1, 1}
	if q := metrics.Modularity(2, g, comm, 2); math.Abs(q-0.5) > 1e-12 {
		t.Fatalf("Q = %v, want 0.5", q)
	}
	// All vertices in one community: Q = 1 − 1 = 0.
	one := []int64{0, 0, 0, 0, 0, 0}
	if q := metrics.Modularity(1, g, one, 1); math.Abs(q) > 1e-12 {
		t.Fatalf("single community Q = %v, want 0", q)
	}
}

func TestModularityAgreesWithBaselinePackage(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(800, 6))
	if err != nil {
		t.Fatal(err)
	}
	res := baseline.Louvain(g, 1)
	got := metrics.Modularity(4, g, res.CommunityOf, res.NumCommunities)
	want := baseline.PartitionModularity(g, res.CommunityOf, res.NumCommunities)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("metrics %v vs baseline %v", got, want)
	}
	if math.Abs(got-res.Modularity) > 1e-9 {
		t.Fatalf("metrics %v vs louvain-reported %v", got, res.Modularity)
	}
}

func TestModularityAgreesWithEngine(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(1000, 8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DetectContext(context.Background(), g, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := metrics.Modularity(2, g, res.CommunityOf, res.NumCommunities)
	if math.Abs(got-res.FinalModularity) > 1e-9 {
		t.Fatalf("metrics %v vs engine %v", got, res.FinalModularity)
	}
	cov := metrics.Coverage(2, g, res.CommunityOf, res.NumCommunities)
	if math.Abs(cov-res.FinalCoverage) > 1e-9 {
		t.Fatalf("coverage %v vs engine %v", cov, res.FinalCoverage)
	}
}

func TestCoverageBounds(t *testing.T) {
	g := gen.CliqueChain(3, 4)
	comm := make([]int64, 12)
	for i := range comm {
		comm[i] = int64(i) / 4
	}
	cov := metrics.Coverage(1, g, comm, 3)
	// 3·6 intra edges of 20 total.
	if math.Abs(cov-18.0/20.0) > 1e-12 {
		t.Fatalf("coverage %v, want 0.9", cov)
	}
	single := make([]int64, 12)
	if got := metrics.Coverage(1, g, single, 1); math.Abs(got-1) > 1e-12 {
		t.Fatalf("whole-graph coverage %v, want 1", got)
	}
}

func TestConductancesKnownValue(t *testing.T) {
	// Two triangles joined by one edge, split by triangle:
	// each community: vol = 7, internal = 3, cut = 1, 2m−vol = 7 → φ = 1/7.
	var edges []graph.Edge
	for b := int64(0); b < 2; b++ {
		for i := int64(0); i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				edges = append(edges, graph.Edge{U: 3*b + i, V: 3*b + j, W: 1})
			}
		}
	}
	edges = append(edges, graph.Edge{U: 2, V: 3, W: 1})
	g := graph.MustBuild(1, 6, edges)
	comm := []int64{0, 0, 0, 1, 1, 1}
	phis := metrics.Conductances(1, g, comm, 2)
	for c, phi := range phis {
		if math.Abs(phi-1.0/7.0) > 1e-12 {
			t.Fatalf("φ[%d] = %v, want 1/7", c, phi)
		}
	}
}

func TestSizes(t *testing.T) {
	sizes := metrics.Sizes([]int64{0, 1, 1, 2, 2, 2}, 3)
	for i, want := range []int64{1, 2, 3} {
		if sizes[i] != want {
			t.Fatalf("sizes = %v", sizes)
		}
	}
}

func TestEvaluateSummary(t *testing.T) {
	g := gen.CliqueChain(4, 5)
	comm := make([]int64, 20)
	for i := range comm {
		comm[i] = int64(i) / 5
	}
	s := metrics.Evaluate(2, g, comm, 4)
	if s.NumCommunities != 4 || s.MinSize != 5 || s.MaxSize != 5 || s.MedianSize != 5 {
		t.Fatalf("summary %+v", s)
	}
	if s.MeanSize != 5 {
		t.Fatalf("mean size %v", s.MeanSize)
	}
	if s.Modularity <= 0.5 || s.Coverage <= 0.8 {
		t.Fatalf("quality: %+v", s)
	}
	if !strings.Contains(s.String(), "communities=4") {
		t.Fatalf("String(): %q", s.String())
	}
	empty := metrics.Evaluate(1, graph.NewEmpty(0), nil, 0)
	if empty.NumCommunities != 0 {
		t.Fatal("empty summary")
	}
}

func TestModularityBoundsProperty(t *testing.T) {
	f := func(raw []uint16, split uint8) bool {
		const n = 24
		var edges []graph.Edge
		for i := 0; i+2 < len(raw); i += 3 {
			edges = append(edges, graph.Edge{
				U: int64(raw[i] % n), V: int64(raw[i+1] % n), W: int64(raw[i+2]%5) + 1})
		}
		g, err := graph.Build(1, n, edges)
		if err != nil {
			return false
		}
		k := int64(split%4) + 1
		comm := make([]int64, n)
		r := par.NewRNG(uint64(split))
		for i := range comm {
			comm[i] = r.Int63n(k)
		}
		comm, k = metrics.Densify(comm)
		q := metrics.Modularity(2, g, comm, k)
		cov := metrics.Coverage(2, g, comm, k)
		return q >= -0.5-1e-9 && q <= 1+1e-9 && cov >= -1e-9 && cov <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
