package contract

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/par"
	"repro/internal/plp"
	"repro/internal/scoring"
)

// contractCase is one contraction input: the graph, the dense mapping the
// kernel should collapse it by, and the kernel entry point under test
// (Bucket, ByMapping, or ByLabels). run takes nil s and dst for a fresh
// contraction.
type contractCase struct {
	name    string
	g       *graph.Graph
	mapping []int64
	k       int64
	run     func(ec *exec.Ctx, s *Scratch, dst *graph.Graph) *graph.Graph
}

// modularityMatch is one engine level's matching on g: modularity scores,
// then the worklist kernel.
func modularityMatch(g *graph.Graph) []int64 {
	deg := g.WeightedDegrees(2)
	scores := make([]float64, len(g.V))
	scoring.Score(exec.Background(2), scoring.Modularity{}, g, deg, g.TotalWeight(2), scores, nil, 0, nil)
	return matching.Worklist(exec.Background(2), g, scores, nil).Match
}

func bucketCase(name string, g *graph.Graph) contractCase {
	match := modularityMatch(g)
	mapping, k := Relabel(exec.Background(1), g, match, nil)
	return contractCase{name, g, mapping, k, func(ec *exec.Ctx, s *Scratch, dst *graph.Graph) *graph.Graph {
		ng, _ := Bucket(ec, g, match, s, dst, nil)
		return ng
	}}
}

func byLabelsCase(name string, g *graph.Graph, labels []int64) contractCase {
	mapping, k := densify(labels)
	return contractCase{name, g, mapping, k, func(ec *exec.Ctx, s *Scratch, dst *graph.Graph) *graph.Graph {
		ng, _, _ := ByLabels(ec, g, labels, s, dst, nil)
		return ng
	}}
}

func byMappingCase(name string, g *graph.Graph, mapping []int64, k int64) contractCase {
	return contractCase{name, g, mapping, k, func(ec *exec.Ctx, s *Scratch, dst *graph.Graph) *graph.Graph {
		return ByMapping(ec, g, mapping, k, s, dst)
	}}
}

// contractCases covers a hub-heavy R-MAT graph and a planted-community
// graph under matching-induced pairs, PLP labels, a single label for every
// vertex, and a second level whose input is itself contraction output (so
// its buckets are in first-seen, not sorted, order).
func contractCases(t *testing.T) []contractCase {
	t.Helper()
	rmat, _, err := gen.ConnectedRMAT(2, gen.DefaultRMAT(11, 7))
	if err != nil {
		t.Fatal(err)
	}
	lj, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 5))
	if err != nil {
		t.Fatal(err)
	}
	n := rmat.NumVertices()
	single := make([]int64, n)
	for v := range single {
		single[v] = n / 2 // one sparse label
	}
	plpLabels := plp.Propagate(exec.Background(2), rmat, plp.Options{}, nil).Labels

	mapping, k := Relabel(exec.Background(1), rmat, modularityMatch(rmat), nil)
	level1 := ByMapping(exec.Background(2), rmat, mapping, k, nil, nil)
	mapping2, k2 := Relabel(exec.Background(1), level1, modularityMatch(level1), nil)

	return []contractCase{
		bucketCase("rmat/bucket", rmat),
		bucketCase("ljsim/bucket", lj),
		byLabelsCase("rmat/plp", rmat, plpLabels),
		byLabelsCase("rmat/single", rmat, single),
		byMappingCase("rmat/level2", level1, mapping2, k2),
	}
}

// sameBuckets requires got to hold exactly want's buckets: the same Start
// and End offsets, the same V/W sequence in every bucket and the same Self
// array.
func sameBuckets(t *testing.T, label string, want, got *graph.Graph) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if want.NumVertices() != got.NumVertices() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("%s: %d vertices / %d edges, want %d / %d", label,
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for x := int64(0); x < want.NumVertices(); x++ {
		if want.Self[x] != got.Self[x] {
			t.Fatalf("%s: Self[%d] = %d, want %d", label, x, got.Self[x], want.Self[x])
		}
		ws, we := want.Bucket(x)
		gs, ge := got.Bucket(x)
		if ws != gs || we != ge {
			t.Fatalf("%s: bucket %d at [%d,%d), want [%d,%d)", label, x, gs, ge, ws, we)
		}
		for e := ws; e < we; e++ {
			if want.V[e] != got.V[e] || want.W[e] != got.W[e] {
				t.Fatalf("%s: bucket %d slot %d = (%d,%d), want (%d,%d)", label, x, e-ws,
					got.V[e], got.W[e], want.V[e], want.W[e])
			}
		}
	}
}

// TestContractionDeterministicAndExact pins the merge's output. For every
// kernel entry point, a one-thread contraction must hold exactly the edges
// and self-loops of a map-based fold of the input, and every other run —
// threads {1,2,4}, fresh or through a reused arena, with a locally built
// schedule or an installed level partition — must reproduce its bucket
// offsets and its buckets slot for slot.
func TestContractionDeterministicAndExact(t *testing.T) {
	for _, c := range contractCases(t) {
		want := map[[2]int64]int64{}
		wantSelf := make([]int64, c.k)
		for x := int64(0); x < c.g.NumVertices(); x++ {
			wantSelf[c.mapping[x]] += c.g.Self[x]
		}
		c.g.ForEachEdge(func(_ int64, u, v, w int64) {
			a, b := c.mapping[u], c.mapping[v]
			if a == b {
				wantSelf[a] += w
				return
			}
			first, second := graph.StoredOrder(a, b)
			want[[2]int64{first, second}] += w
		})
		ref := c.run(exec.Background(1), nil, nil)
		if err := ref.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ref.NumVertices() != c.k || ref.NumEdges() != int64(len(want)) {
			t.Fatalf("%s: %d vertices / %d edges, want %d / %d", c.name,
				ref.NumVertices(), ref.NumEdges(), c.k, len(want))
		}
		ref.ForEachEdge(func(_ int64, u, v, w int64) {
			if want[[2]int64{u, v}] != w {
				t.Fatalf("%s: edge (%d,%d) weight %d, want %d", c.name, u, v, w, want[[2]int64{u, v}])
			}
		})
		for x := int64(0); x < c.k; x++ {
			if ref.Self[x] != wantSelf[x] {
				t.Fatalf("%s: Self[%d] = %d, want %d", c.name, x, ref.Self[x], wantSelf[x])
			}
		}
		var s Scratch
		dst := &graph.Graph{}
		for _, p := range []int{1, 2, 4} {
			for _, sched := range []string{"local", "installed"} {
				ec := exec.New(nil, p, nil)
				var pt par.Partition
				if sched == "installed" {
					ec.BuildBuckets(&pt, int(c.g.NumVertices()), c.g.Start, c.g.End)
					ec.SetPartition(&pt)
				}
				l := fmt.Sprintf("%s p=%d %s", c.name, p, sched)
				sameBuckets(t, l+" fresh", ref, c.run(ec, nil, nil))
				sameBuckets(t, l+" arena", ref, c.run(ec, &s, dst))
				ec.Close()
			}
		}
	}
}
