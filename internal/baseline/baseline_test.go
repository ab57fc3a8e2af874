package baseline

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

func checkPartition(t *testing.T, name string, comm []int64, k int64) {
	t.Helper()
	seen := make([]bool, k)
	for v, c := range comm {
		if c < 0 || c >= k {
			t.Fatalf("%s: vertex %d community %d outside [0,%d)", name, v, c, k)
		}
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			t.Fatalf("%s: community %d empty", name, c)
		}
	}
}

func TestCNMCliqueChain(t *testing.T) {
	g := gen.CliqueChain(4, 6)
	res := CNM(g)
	checkPartition(t, "cnm", res.CommunityOf, res.NumCommunities)
	if res.NumCommunities != 4 {
		t.Fatalf("CNM found %d communities, want 4", res.NumCommunities)
	}
	for c := int64(0); c < 4; c++ {
		first := res.CommunityOf[c*6]
		for i := int64(1); i < 6; i++ {
			if res.CommunityOf[c*6+i] != first {
				t.Fatalf("clique %d split", c)
			}
		}
	}
	if got := PartitionModularity(g, res.CommunityOf, res.NumCommunities); math.Abs(got-res.Modularity) > 1e-9 {
		t.Fatalf("reported modularity %v, recomputed %v", res.Modularity, got)
	}
}

func TestCNMKarateBand(t *testing.T) {
	res := CNM(gen.Karate())
	// CNM on karate is known to reach Q ≈ 0.38.
	if res.Modularity < 0.35 || res.Modularity > 0.42 {
		t.Fatalf("CNM karate modularity %v outside [0.35, 0.42]", res.Modularity)
	}
	if res.NumCommunities < 2 || res.NumCommunities > 6 {
		t.Fatalf("CNM karate found %d communities", res.NumCommunities)
	}
}

func TestCNMDegenerate(t *testing.T) {
	res := CNM(graph.NewEmpty(0))
	if res.NumCommunities != 0 {
		t.Fatal("empty graph")
	}
	res = CNM(graph.NewEmpty(4))
	if res.NumCommunities != 4 || res.Merges != 0 {
		t.Fatalf("isolated vertices: %d communities, %d merges", res.NumCommunities, res.Merges)
	}
	// Two vertices one edge: merging beats two singletons.
	g := graph.MustBuild(1, 2, []graph.Edge{{U: 0, V: 1, W: 1}})
	res = CNM(g)
	if res.NumCommunities != 1 {
		t.Fatalf("single edge: %d communities, want 1", res.NumCommunities)
	}
}

func TestCNMNeverNegativeDelta(t *testing.T) {
	// CNM must stop at its modularity peak: final Q >= Q of singletons.
	r := par.NewRNG(12)
	for trial := 0; trial < 10; trial++ {
		n := int64(20 + r.Intn(60))
		var edges []graph.Edge
		for i := 0; i < int(n)*3; i++ {
			edges = append(edges, graph.Edge{U: r.Int63n(n), V: r.Int63n(n), W: r.Int63n(3) + 1})
		}
		g := graph.MustBuild(1, n, edges)
		res := CNM(g)
		checkPartition(t, "cnm", res.CommunityOf, res.NumCommunities)
		singles := make([]int64, n)
		for i := range singles {
			singles[i] = int64(i)
		}
		if res.Modularity < PartitionModularity(g, singles, n)-1e-9 {
			t.Fatalf("trial %d: CNM ended below singleton modularity", trial)
		}
	}
}

func TestLouvainCliqueChain(t *testing.T) {
	g := gen.CliqueChain(5, 5)
	res := Louvain(g, 1)
	checkPartition(t, "louvain", res.CommunityOf, res.NumCommunities)
	if res.NumCommunities != 5 {
		t.Fatalf("Louvain found %d communities, want 5", res.NumCommunities)
	}
	if res.Levels < 1 {
		t.Fatal("no levels performed")
	}
}

func TestLouvainKarate(t *testing.T) {
	res := Louvain(gen.Karate(), 7)
	// Louvain on karate lands around Q ≈ 0.40–0.42.
	if res.Modularity < 0.38 || res.Modularity > 0.43 {
		t.Fatalf("Louvain karate modularity %v outside [0.38, 0.43]", res.Modularity)
	}
}

func TestLouvainRecoversPlantedPartition(t *testing.T) {
	g, truth, err := gen.SBM(2, gen.SBMConfig{
		Blocks: []int64{40, 40, 40, 40}, PIn: 0.4, POut: 0.01, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res := Louvain(g, 3)
	checkPartition(t, "louvain", res.CommunityOf, res.NumCommunities)
	if res.NumCommunities != 4 {
		t.Fatalf("Louvain found %d communities, want 4", res.NumCommunities)
	}
	// Perfect recovery up to relabeling: within each block one label.
	for b := int64(0); b < 4; b++ {
		first := res.CommunityOf[b*40]
		for i := int64(1); i < 40; i++ {
			v := b*40 + i
			if res.CommunityOf[v] != first {
				t.Fatalf("block %d split", b)
			}
		}
	}
	_ = truth
}

func TestLouvainDegenerate(t *testing.T) {
	if res := Louvain(graph.NewEmpty(0), 1); res.NumCommunities != 0 {
		t.Fatal("empty graph")
	}
	if res := Louvain(graph.NewEmpty(3), 1); res.NumCommunities != 3 {
		t.Fatal("isolated vertices should stay singletons")
	}
}

func TestPartitionModularityBounds(t *testing.T) {
	r := par.NewRNG(8)
	for trial := 0; trial < 10; trial++ {
		n := int64(10 + r.Intn(40))
		var edges []graph.Edge
		for i := 0; i < int(n)*2; i++ {
			edges = append(edges, graph.Edge{U: r.Int63n(n), V: r.Int63n(n), W: 1})
		}
		g := graph.MustBuild(1, n, edges)
		// Random partition into 3.
		comm := make([]int64, n)
		for i := range comm {
			comm[i] = int64(r.Intn(3))
		}
		q := PartitionModularity(g, comm, 3)
		if q < -0.5-1e-9 || q > 1+1e-9 {
			t.Fatalf("modularity %v outside [-1/2, 1]", q)
		}
	}
}

func TestBaselinesBeatOrMatchEngineOnCommunityGraphs(t *testing.T) {
	// The engine's matching-based agglomeration is the fast-but-greedy
	// algorithm; Louvain is the quality comparator. On a community-rich
	// graph Louvain should reach at least the engine's modularity.
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(1500, 4))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.DetectContext(context.Background(), g, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	lou := Louvain(g, 2)
	if lou.Modularity < eng.FinalModularity-0.05 {
		t.Fatalf("Louvain %v well below engine %v", lou.Modularity, eng.FinalModularity)
	}
	cnm := CNM(g)
	if cnm.Modularity < 0 {
		t.Fatalf("CNM modularity %v negative on community-rich graph", cnm.Modularity)
	}
}

// naiveCNM recomputes every pair's ΔQ from scratch each step and merges the
// best positive one — O(n³) but trivially correct. The heap implementation
// must reach the same modularity (partitions can differ on exact ΔQ ties,
// which the deterministic tie-break below avoids by using distinct weights).
func naiveCNM(g *graph.Graph) float64 {
	n := g.NumVertices()
	m := float64(g.TotalWeight(1))
	if m == 0 {
		return 0
	}
	adj := make([]map[int64]int64, n)
	vol := make([]int64, n)
	internal := make([]int64, n)
	alive := make([]bool, n)
	for i := int64(0); i < n; i++ {
		adj[i] = map[int64]int64{}
		alive[i] = true
		internal[i] = g.Self[i]
		vol[i] = 2 * g.Self[i]
	}
	g.ForEachEdge(func(_ int64, u, v, w int64) {
		adj[u][v] += w
		adj[v][u] += w
		vol[u] += w
		vol[v] += w
	})
	for {
		bestDQ := 0.0
		var ba, bb int64 = -1, -1
		for a := int64(0); a < n; a++ {
			if !alive[a] {
				continue
			}
			for b, w := range adj[a] {
				if a >= b || !alive[b] {
					continue
				}
				dq := float64(w)/m - float64(vol[a])*float64(vol[b])/(2*m*m)
				if dq > bestDQ || (dq == bestDQ && ba == -1) {
					bestDQ, ba, bb = dq, a, b
				}
			}
		}
		if ba == -1 || bestDQ <= 0 {
			break
		}
		alive[bb] = false
		internal[ba] += internal[bb] + adj[ba][bb]
		vol[ba] += vol[bb]
		delete(adj[ba], bb)
		delete(adj[bb], ba)
		for x, w := range adj[bb] {
			delete(adj[x], bb)
			adj[ba][x] += w
			adj[x][ba] = adj[ba][x]
		}
		adj[bb] = nil
	}
	var q float64
	for c := int64(0); c < n; c++ {
		if alive[c] {
			d := float64(vol[c]) / (2 * m)
			q += float64(internal[c])/m - d*d
		}
	}
	return q
}

func TestCNMHeapMatchesNaiveReference(t *testing.T) {
	r := par.NewRNG(33)
	for trial := 0; trial < 8; trial++ {
		n := int64(10 + r.Intn(25))
		var edges []graph.Edge
		seen := map[[2]int64]bool{}
		for i := 0; i < int(n)*2; i++ {
			a, b := r.Int63n(n), r.Int63n(n)
			if a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			if seen[[2]int64{a, b}] {
				continue
			}
			seen[[2]int64{a, b}] = true
			// Distinct weights keep ΔQ ties away so greedy order is unique.
			edges = append(edges, graph.Edge{U: a, V: b, W: int64(len(edges)*2 + 1)})
		}
		g := graph.MustBuild(1, n, edges)
		want := naiveCNM(g)
		got := CNM(g)
		if diff := got.Modularity - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("trial %d: heap CNM Q=%v, naive Q=%v", trial, got.Modularity, want)
		}
	}
}
