package matching

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/scoring"
)

// greedyReference is the sorted-greedy matching in edgeKey order: take the
// positive edges from the top of the total order down, keeping each whose
// endpoints are both still free. Under a strict total order this is the
// unique locally-dominant matching, so the kernels must reproduce it exactly
// on every thread count and schedule.
func greedyReference(g *graph.Graph, scores []float64) []int64 {
	type cand struct {
		k    edgeKey
		u, v int64
	}
	var cs []cand
	g.ForEachEdge(func(e int64, u, v, _ int64) {
		if scores[e] > 0 {
			a, b := graph.StoredOrder(u, v)
			cs = append(cs, cand{makeKey(scores[e], a, b), u, v})
		}
	})
	sort.Slice(cs, func(i, j int) bool { return cs[j].k.less(cs[i].k) })
	match := make([]int64, g.NumVertices())
	for i := range match {
		match[i] = Unmatched
	}
	for _, c := range cs {
		if match[c.u] == Unmatched && match[c.v] == Unmatched {
			match[c.u], match[c.v] = c.v, c.u
		}
	}
	return match
}

// modularityScores scores g's edges with the engine's default metric.
func modularityScores(g *graph.Graph) []float64 {
	deg := g.WeightedDegrees(1)
	scores := make([]float64, len(g.V))
	scoring.Score(exec.Background(1), scoring.Modularity{}, g, deg, g.TotalWeight(1), scores, nil, 0, nil)
	return scores
}

type diffCase struct {
	name   string
	g      *graph.Graph
	scores []float64
}

// differentialCases is the input matrix: skewed, planted-community and tiny
// graphs under real modularity scores, plus two tie-heavy score sets where
// the hash and endpoint tie-breaks decide almost every comparison.
func differentialCases(t *testing.T) []diffCase {
	t.Helper()
	rmat, _, err := gen.ConnectedRMAT(2, gen.DefaultRMAT(11, 3))
	if err != nil {
		t.Fatal(err)
	}
	lj, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 9))
	if err != nil {
		t.Fatal(err)
	}
	var cases []diffCase
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat", rmat}, {"ljsim", lj}, {"karate", gen.Karate()}} {
		equal := make([]float64, len(c.g.V))
		quant := make([]float64, len(c.g.V))
		for e := range equal {
			equal[e] = 1
			// Three integer levels plus non-positive edges the rows must skip.
			quant[e] = float64(e*7919%4 - 1)
		}
		cases = append(cases,
			diffCase{c.name + "/modularity", c.g, modularityScores(c.g)},
			diffCase{c.name + "/all-equal", c.g, equal},
			diffCase{c.name + "/quantized", c.g, quant})
	}
	return cases
}

// schedule is one way to run a kernel: a thread count and whether the
// engine's level partition is installed (the row build adopts it) or left
// out (the row build makes its own spans).
type schedule struct {
	threads int
	install bool
}

func (sc schedule) String() string {
	if sc.install {
		return fmt.Sprintf("p%d/auto-installed", sc.threads)
	}
	return fmt.Sprintf("p%d/auto", sc.threads)
}

func schedules() []schedule {
	out := []schedule{{threads: 1}}
	for _, p := range []int{2, 4} {
		out = append(out, schedule{threads: p}, schedule{threads: p, install: true})
	}
	return out
}

// ctxFor returns an execution context for sc over g, with its level
// partition installed when sc asks for one.
func ctxFor(t *testing.T, ctx context.Context, sc schedule, g *graph.Graph) *exec.Ctx {
	t.Helper()
	ec := exec.New(ctx, sc.threads, nil)
	t.Cleanup(ec.Close)
	if sc.install {
		pt := &par.Partition{}
		ec.BuildBuckets(pt, int(g.NumVertices()), g.Start, g.End)
		ec.SetPartition(pt)
	}
	return ec
}

func TestKernelsEqualSortedGreedy(t *testing.T) {
	for _, c := range differentialCases(t) {
		want := greedyReference(c.g, c.scores)
		var wantPairs int64
		var wantWeight float64
		c.g.ForEachEdge(func(e int64, u, v, _ int64) {
			if want[u] == v {
				wantPairs++
				wantWeight += c.scores[e]
			}
		})
		for _, sc := range schedules() {
			ec := ctxFor(t, context.Background(), sc, c.g)
			for _, k := range []struct {
				name string
				run  func(*exec.Ctx, *graph.Graph, []float64, *Scratch) Result
			}{{"worklist", Worklist}, {"edgesweep", EdgeSweep}} {
				var s Scratch
				for trial := 0; trial < 2; trial++ {
					res := k.run(ec, c.g, c.scores, &s)
					for v := range want {
						if res.Match[v] != want[v] {
							t.Fatalf("%s %s %v trial %d: match[%d] = %d, sorted greedy says %d",
								k.name, c.name, sc, trial, v, res.Match[v], want[v])
						}
					}
					if res.Pairs != wantPairs {
						t.Fatalf("%s %s %v: %d pairs, want %d", k.name, c.name, sc, res.Pairs, wantPairs)
					}
					if math.Abs(res.Weight-wantWeight) > 1e-9*math.Max(1, math.Abs(wantWeight)) {
						t.Fatalf("%s %s %v: weight %v, want %v", k.name, c.name, sc, res.Weight, wantWeight)
					}
					if len(res.Drain) != res.Passes {
						t.Fatalf("%s %s %v: %d drain entries for %d passes",
							k.name, c.name, sc, len(res.Drain), res.Passes)
					}
				}
			}
		}
	}
}

// cancelAfter is a context whose Err reports cancellation from the
// (allowed+1)-th call on. The worklist checks Err once at the top of every
// pass, so it lets exactly `allowed` passes run.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func newCancelAfter(allowed int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.left.Store(allowed)
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestWorklistCancelBetweenPasses stops the pass loop after k passes: the
// partial matching must be symmetric, every pair must be a sorted-greedy
// pair (claims are only ever locally dominant edges), and the tallies must
// agree with the match array.
func TestWorklistCancelBetweenPasses(t *testing.T) {
	// Increasing weights along a path: one locally dominant edge per pass,
	// so a cut after k passes leaves exactly k pairs.
	const n = 64
	var edges []graph.Edge
	for i := int64(0); i < n-1; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1, W: i + 1})
	}
	path := graph.MustBuild(1, n, edges)
	lj, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []diffCase{{"path", path, weightScores(path)}, {"ljsim", lj, modularityScores(lj)}} {
		want := greedyReference(c.g, c.scores)
		full := Worklist(exec.Background(1), c.g, c.scores, nil)
		for _, sc := range schedules() {
			for _, k := range []int{0, 1, 3} {
				if k >= full.Passes {
					continue
				}
				ec := ctxFor(t, newCancelAfter(int64(k)), sc, c.g)
				res := Worklist(ec, c.g, c.scores, nil)
				if res.Passes != k {
					t.Fatalf("%s %v: cancelled after %d passes but ran %d", c.name, sc, k, res.Passes)
				}
				var pairs int64
				for v, m := range res.Match {
					if m == Unmatched {
						continue
					}
					if res.Match[m] != int64(v) {
						t.Fatalf("%s %v k=%d: asymmetric pair (%d, %d)", c.name, sc, k, v, m)
					}
					if want[v] != m {
						t.Fatalf("%s %v k=%d: pair (%d, %d) is not a sorted-greedy pair", c.name, sc, k, v, m)
					}
					if int64(v) < m {
						pairs++
					}
				}
				if pairs != res.Pairs {
					t.Fatalf("%s %v k=%d: Pairs %d, match array holds %d", c.name, sc, k, res.Pairs, pairs)
				}
				if c.name == "path" && pairs != int64(k) {
					t.Fatalf("path %v: %d pairs after %d passes, want one per pass", sc, pairs, k)
				}
			}
		}
	}
}
