package scoring

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
)

// bruteModularity computes Q for a partition of g's vertices, treating g as
// a community graph (self-loops are internal weight):
//
//	Q = Σ_c [ l_c/m − (d_c/(2m))² ]
func bruteModularity(g *graph.Graph, comm []int64) float64 {
	m := float64(g.TotalWeight(1))
	if m == 0 {
		return 0
	}
	n := g.NumVertices()
	var maxC int64 = -1
	for _, c := range comm {
		if c > maxC {
			maxC = c
		}
	}
	internal := make([]float64, maxC+1)
	vol := make([]float64, maxC+1)
	deg := g.WeightedDegrees(1)
	for x := int64(0); x < n; x++ {
		internal[comm[x]] += float64(g.Self[x])
		vol[comm[x]] += float64(deg[x])
	}
	g.ForEachEdge(func(_ int64, u, v, w int64) {
		if comm[u] == comm[v] {
			internal[comm[u]] += float64(w)
		}
	})
	var q float64
	for c := range internal {
		q += internal[c]/m - (vol[c]/(2*m))*(vol[c]/(2*m))
	}
	return q
}

// singletons returns the identity partition.
func singletons(n int64) []int64 {
	comm := make([]int64, n)
	for i := range comm {
		comm[i] = int64(i)
	}
	return comm
}

func scoreAll(t *testing.T, s Scorer, g *graph.Graph, p int) []float64 {
	t.Helper()
	deg := g.WeightedDegrees(p)
	scores := make([]float64, len(g.V))
	Score(exec.Background(p), s, g, deg, g.TotalWeight(p), scores, nil, 0, nil)
	return scores
}

func TestModularityMatchesBruteForceDelta(t *testing.T) {
	// ΔQ from the scorer must equal Q(merge c,d) − Q(singletons) exactly
	// (same arithmetic, different route).
	gs := []*graph.Graph{
		gen.Karate(),
		gen.Ring(10),
		gen.CliqueChain(3, 5),
	}
	for gi, g := range gs {
		scores := scoreAll(t, Modularity{}, g, 3)
		base := bruteModularity(g, singletons(g.NumVertices()))
		g.ForEachEdge(func(e int64, u, v, _ int64) {
			comm := singletons(g.NumVertices())
			comm[v] = comm[u] // merge the two endpoint communities
			want := bruteModularity(g, comm) - base
			if math.Abs(scores[e]-want) > 1e-12 {
				t.Fatalf("graph %d edge {%d,%d}: ΔQ %v, brute force %v", gi, u, v, scores[e], want)
			}
		})
	}
}

func TestModularityDeltaWithSelfLoops(t *testing.T) {
	// Self-loops shift community volumes and must flow into the score.
	g := graph.MustBuild(1, 3, []graph.Edge{{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 1}, {U: 0, V: 0, W: 3}})
	scores := scoreAll(t, Modularity{}, g, 1)
	base := bruteModularity(g, singletons(3))
	g.ForEachEdge(func(e int64, u, v, _ int64) {
		comm := singletons(3)
		comm[v] = comm[u]
		want := bruteModularity(g, comm) - base
		if math.Abs(scores[e]-want) > 1e-12 {
			t.Fatalf("edge {%d,%d}: ΔQ %v, want %v", u, v, scores[e], want)
		}
	})
}

func TestModularityDeltaProperty(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		p := int(pRaw%4) + 1
		const n = 20
		var edges []graph.Edge
		for i := 0; i+2 < len(raw); i += 3 {
			edges = append(edges, graph.Edge{
				U: int64(raw[i] % n), V: int64(raw[i+1] % n), W: int64(raw[i+2]%4) + 1})
		}
		g, err := graph.Build(p, n, edges)
		if err != nil || g.NumEdges() == 0 {
			return true
		}
		scores := scoreAll(t, Modularity{}, g, p)
		base := bruteModularity(g, singletons(n))
		ok := true
		g.ForEachEdge(func(e int64, u, v, _ int64) {
			comm := singletons(n)
			comm[v] = comm[u]
			want := bruteModularity(g, comm) - base
			if math.Abs(scores[e]-want) > 1e-9 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestModularityCliquePositiveRingOfCliques(t *testing.T) {
	// Within a chain of cliques, intra-clique edges must score higher than
	// the bridges.
	g := gen.CliqueChain(4, 6)
	scores := scoreAll(t, Modularity{}, g, 2)
	minIntra, maxBridge, meanIntra, meanBridge := splitScores(g, scores, 6)
	// Intra edges between the two "port" vertices of a middle clique have
	// the same degrees as the bridge, so ties are legitimate — but no bridge
	// may beat an intra edge, and on average intra must win clearly.
	if minIntra < maxBridge {
		t.Fatalf("intra-clique min %v below bridge max %v", minIntra, maxBridge)
	}
	if meanIntra <= meanBridge {
		t.Fatalf("intra mean %v not above bridge mean %v", meanIntra, meanBridge)
	}
}

func TestModularityZeroWeightGraph(t *testing.T) {
	g := graph.NewEmpty(5)
	scores := make([]float64, 0)
	Score(exec.Background(1), Modularity{}, g, g.WeightedDegrees(1), g.TotalWeight(1), scores, nil, 0, nil)
	// Nothing to score; simply must not panic.
}

func TestConductanceSymmetricImprovement(t *testing.T) {
	// Merging the two halves of a single edge removes all cut: score > 0.
	g := graph.MustBuild(1, 2, []graph.Edge{{U: 0, V: 1, W: 1}})
	scores := scoreAll(t, Conductance{}, g, 1)
	var s float64
	g.ForEachEdge(func(e int64, _, _, _ int64) { s = scores[e] })
	// φ(singleton with one incident edge) = 1, merged community has zero
	// cut: score = 1 + 1 − 0 = 2.
	if math.Abs(s-2) > 1e-12 {
		t.Fatalf("conductance score %v, want 2", s)
	}
}

func TestConductanceName(t *testing.T) {
	if (Modularity{}).Name() != "modularity" || (Conductance{}).Name() != "conductance" {
		t.Fatal("scorer names wrong")
	}
}

func TestConductancePrefersDenseMerge(t *testing.T) {
	// In a clique chain, merging within a clique should beat merging across
	// the bridge for conductance too.
	g := gen.CliqueChain(3, 5)
	scores := scoreAll(t, Conductance{}, g, 2)
	minIntra, maxBridge, meanIntra, meanBridge := splitScores(g, scores, 5)
	if minIntra < maxBridge {
		t.Fatalf("intra min %v below bridge max %v", minIntra, maxBridge)
	}
	if meanIntra <= meanBridge {
		t.Fatalf("intra mean %v not above bridge mean %v", meanIntra, meanBridge)
	}
}

// splitScores separates intra-clique from bridge edge scores for a
// CliqueChain(k, s) graph and returns (min intra, max bridge, mean intra,
// mean bridge).
func splitScores(g *graph.Graph, scores []float64, s int64) (minIntra, maxBridge, meanIntra, meanBridge float64) {
	minIntra, maxBridge = math.Inf(1), math.Inf(-1)
	var sumI, sumB float64
	var nI, nB int
	g.ForEachEdge(func(e int64, u, v, _ int64) {
		if u/s == v/s {
			if scores[e] < minIntra {
				minIntra = scores[e]
			}
			sumI += scores[e]
			nI++
		} else {
			if scores[e] > maxBridge {
				maxBridge = scores[e]
			}
			sumB += scores[e]
			nB++
		}
	})
	return minIntra, maxBridge, sumI / float64(nI), sumB / float64(nB)
}

func TestScorersConsistentAcrossWorkers(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(500, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scorer{Modularity{}, Conductance{}} {
		want := scoreAll(t, s, g, 1)
		for _, p := range []int{2, 7} {
			got := scoreAll(t, s, g, p)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s: p=%d: score %d differs: %v != %v", s.Name(), p, i, got[i], want[i])
				}
			}
		}
	}
}
