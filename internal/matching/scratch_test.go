package matching

import (
	"context"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestScratchReuseAcrossGraphs runs both kernels repeatedly through one
// Scratch over graphs of shrinking and growing sizes — the engine's phase
// pattern plus the harness's trial pattern — on every schedule, and checks
// every matching equals the sorted-greedy reference: stale row-store,
// stripe and per-vertex entries past a smaller graph's extent must never
// leak into its matching.
func TestScratchReuseAcrossGraphs(t *testing.T) {
	lj, _, err := gen.LJSim(2, gen.DefaultLJSim(4000, 2))
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{
		lj,
		gen.CliqueChain(16, 6),
		gen.Karate(),
		gen.Ring(5),
		gen.CliqueChain(32, 4), // bigger again than the two before: buffers regrow
	}
	kernels := []struct {
		name string
		run  func(*exec.Ctx, *graph.Graph, []float64, *Scratch) Result
	}{{"worklist", Worklist}, {"edgesweep", EdgeSweep}}
	for _, k := range kernels {
		for _, sc := range schedules() {
			var s Scratch
			for gi, g := range graphs {
				scores := make([]float64, len(g.V))
				for e := range scores {
					scores[e] = float64(e%7) + 0.5
				}
				want := greedyReference(g, scores)
				ec := ctxFor(t, context.Background(), sc, g)
				for trial := 0; trial < 2; trial++ {
					res := k.run(ec, g, scores, &s)
					if err := Verify(g, scores, res.Match); err != nil {
						t.Fatalf("%s %v graph %d trial %d: %v", k.name, sc, gi, trial, err)
					}
					if int64(len(res.Match)) != g.NumVertices() {
						t.Fatalf("%s %v graph %d: match sized %d for %d vertices",
							k.name, sc, gi, len(res.Match), g.NumVertices())
					}
					for v := range want {
						if res.Match[v] != want[v] {
							t.Fatalf("%s %v graph %d trial %d: match[%d] = %d, want %d",
								k.name, sc, gi, trial, v, res.Match[v], want[v])
						}
					}
				}
			}
		}
	}
}

// TestScratchMatchesFresh checks single-threaded scratch and fresh runs
// produce the identical matching (p=1 makes the kernel deterministic).
func TestScratchMatchesFresh(t *testing.T) {
	g := gen.CliqueChain(24, 5)
	scores := make([]float64, len(g.V))
	for e := range scores {
		scores[e] = float64((e*13)%11) + 0.25
	}
	var s Scratch
	// Dirty the scratch first with an unrelated run.
	Worklist(exec.Background(1), gen.Karate(), make([]float64, len(gen.Karate().V)), &s)
	fresh := Worklist(exec.Background(1), g, scores, nil)
	reused := Worklist(exec.Background(1), g, scores, &s)
	for v := range fresh.Match {
		if fresh.Match[v] != reused.Match[v] {
			t.Fatalf("match[%d]: fresh %d, scratch %d", v, fresh.Match[v], reused.Match[v])
		}
	}
	if fresh.Pairs != reused.Pairs || fresh.Passes != reused.Passes {
		t.Fatalf("fresh (pairs=%d passes=%d) != scratch (pairs=%d passes=%d)",
			fresh.Pairs, fresh.Passes, reused.Pairs, reused.Passes)
	}
}
