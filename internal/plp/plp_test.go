package plp

import (
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
)

// propagate runs with p workers and fresh state.
func propagate(p int, g *graph.Graph, opt Options) *Result {
	return Propagate(exec.Background(p), g, opt, nil)
}

func TestSingleEdgeConverges(t *testing.T) {
	// One edge is the minimal oscillation candidate: synchronous propagation
	// without the descend-only rule would swap 0↔1 forever.
	g := graph.MustBuild(1, 2, []graph.Edge{{U: 0, V: 1, W: 1}})
	res := propagate(2, g, Options{})
	if res.Sweeps >= DefaultMaxSweeps {
		t.Fatalf("single edge did not converge: %d sweeps", res.Sweeps)
	}
	if res.Labels[0] != res.Labels[1] {
		t.Errorf("endpoints kept distinct labels %v", res.Labels)
	}
}

func TestTwoCliquesBridge(t *testing.T) {
	// Two K4s joined by one bridge edge: internal label weight 3 beats the
	// bridge weight 1, so the fixpoint keeps the cliques separate.
	var edges []graph.Edge
	for _, base := range []int64{0, 4} {
		for i := int64(0); i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				edges = append(edges, graph.Edge{U: base + i, V: base + j, W: 1})
			}
		}
	}
	edges = append(edges, graph.Edge{U: 3, V: 4, W: 1})
	g := graph.MustBuild(1, 8, edges)
	for _, p := range []int{1, 4} {
		res := propagate(p, g, Options{})
		if res.Sweeps >= DefaultMaxSweeps {
			t.Fatalf("p=%d: no convergence in %d sweeps", p, res.Sweeps)
		}
		for v := 1; v < 4; v++ {
			if res.Labels[v] != res.Labels[0] {
				t.Errorf("p=%d: clique A split: %v", p, res.Labels)
			}
			if res.Labels[4+v] != res.Labels[4] {
				t.Errorf("p=%d: clique B split: %v", p, res.Labels)
			}
		}
		if res.Labels[0] == res.Labels[4] {
			t.Errorf("p=%d: bridge merged the cliques: %v", p, res.Labels)
		}
	}
}

func TestCliqueChainSeparation(t *testing.T) {
	// 8 cliques of 6 chained by single bridges; each clique must end under
	// one label and the drain curves must be recorded per sweep.
	g := gen.CliqueChain(8, 6)
	res := propagate(4, g, Options{})
	if res.Sweeps >= DefaultMaxSweeps {
		t.Fatalf("no convergence in %d sweeps", res.Sweeps)
	}
	if len(res.Active) != res.Sweeps || len(res.Changed) != res.Sweeps {
		t.Fatalf("drain curves have %d/%d entries for %d sweeps",
			len(res.Active), len(res.Changed), res.Sweeps)
	}
	for c := int64(0); c < 8; c++ {
		base := 6 * c
		for i := int64(1); i < 6; i++ {
			if res.Labels[base+i] != res.Labels[base] {
				t.Fatalf("clique %d split: %v", c, res.Labels)
			}
		}
		if c > 0 && res.Labels[base] == res.Labels[base-6] {
			t.Errorf("cliques %d and %d merged", c-1, c)
		}
	}
	// The last executed sweep either hit the fixpoint (changed 0) or emptied
	// the worklist.
	if last := res.Changed[len(res.Changed)-1]; last != 0 {
		t.Errorf("final sweep still changed %d labels yet the run stopped", last)
	}
}

func TestIsolatedVertices(t *testing.T) {
	// No edges: the initial worklist is empty, zero sweeps run, and every
	// vertex keeps its identity label.
	g := graph.NewEmpty(5)
	res := propagate(4, g, Options{})
	if res.Sweeps != 0 {
		t.Errorf("ran %d sweeps on an edgeless graph", res.Sweeps)
	}
	for v, l := range res.Labels {
		if l != int64(v) {
			t.Errorf("vertex %d lost its identity label: %d", v, l)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	res := propagate(2, graph.NewEmpty(0), Options{})
	if len(res.Labels) != 0 || res.Sweeps != 0 {
		t.Errorf("empty graph produced %d labels, %d sweeps", len(res.Labels), res.Sweeps)
	}
}

// ljGraph builds the deterministic LJ-similar test graph used by the engine
// tests.
func ljGraph(t *testing.T, n int64) *graph.Graph {
	t.Helper()
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(n, 42))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDeterminismAcrossThreads(t *testing.T) {
	// The Jacobi two-phase design makes the fixpoint a function of the graph
	// alone: every thread count must produce identical labels.
	for _, g := range []*graph.Graph{gen.Karate(), ljGraph(t, 3000)} {
		ref := propagate(1, g, Options{})
		for _, p := range []int{2, 4, 8} {
			res := propagate(p, g, Options{})
			if res.Sweeps != ref.Sweeps {
				t.Errorf("p=%d: %d sweeps vs %d serial", p, res.Sweeps, ref.Sweeps)
			}
			for v := range ref.Labels {
				if res.Labels[v] != ref.Labels[v] {
					t.Fatalf("p=%d: label[%d]=%d differs from serial %d",
						p, v, res.Labels[v], ref.Labels[v])
				}
			}
		}
	}
}

func TestArenaVsFresh(t *testing.T) {
	// A reused scratch must reproduce the fresh-allocation run exactly, and
	// must survive a larger graph following a smaller one.
	small, big := gen.Karate(), ljGraph(t, 2000)
	s := &Scratch{}
	for _, g := range []*graph.Graph{small, big, small} {
		fresh := propagate(4, g, Options{})
		reused := Propagate(exec.Background(4), g, Options{}, s)
		if reused.Sweeps != fresh.Sweeps {
			t.Fatalf("arena run took %d sweeps, fresh %d", reused.Sweeps, fresh.Sweeps)
		}
		for v := range fresh.Labels {
			if reused.Labels[v] != fresh.Labels[v] {
				t.Fatalf("arena label[%d]=%d, fresh %d", v, reused.Labels[v], fresh.Labels[v])
			}
		}
	}
}

func TestMaxSweepsBound(t *testing.T) {
	g := ljGraph(t, 2000)
	res := propagate(4, g, Options{MaxSweeps: 2})
	if res.Sweeps > 2 {
		t.Errorf("MaxSweeps=2 ran %d sweeps", res.Sweeps)
	}
}

func TestRepeatedRunsIdentical(t *testing.T) {
	// Same thread count, same graph, shared scratch: bitwise-identical labels
	// across runs (the determinism gate's kernel-level half).
	g := ljGraph(t, 3000)
	s := &Scratch{}
	first := append([]int64(nil), Propagate(exec.Background(4), g, Options{}, s).Labels...)
	for run := 0; run < 3; run++ {
		res := Propagate(exec.Background(4), g, Options{}, s)
		for v := range first {
			if res.Labels[v] != first[v] {
				t.Fatalf("run %d: label[%d]=%d differs from first run %d",
					run, v, res.Labels[v], first[v])
			}
		}
	}
}

func TestHighThreadSmallGraph(t *testing.T) {
	// More workers than vertices exercises the stripe-claim cursor and range
	// partitioning edge cases (also the -race target's entry point).
	g := gen.CliqueChain(3, 4)
	ref := propagate(1, g, Options{})
	res := propagate(16, g, Options{})
	for v := range ref.Labels {
		if res.Labels[v] != ref.Labels[v] {
			t.Fatalf("p=16 diverged from serial at vertex %d", v)
		}
	}
}
