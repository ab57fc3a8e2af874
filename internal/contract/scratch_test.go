package contract

import (
	"fmt"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matching"
)

// pairMatch builds the matching {0,1}, {2,3}, ... over the first 2·pairs
// vertices.
func pairMatch(n int64, pairs int64) []int64 {
	m := make([]int64, n)
	for i := range m {
		m[i] = matching.Unmatched
	}
	for i := int64(0); i < pairs && 2*i+1 < n; i++ {
		m[2*i] = 2*i + 1
		m[2*i+1] = 2 * i
	}
	return m
}

// TestByMappingArenaMatchesFresh drives one Scratch and one destination
// graph through a chain of contractions — large graph, smaller graph, large
// again — checking each reused result against a fresh ByMapping of the same
// inputs and against the representation invariants. The shrink-then-grow
// sequence exercises stale counts, stale bucket offsets and buffer regrowth.
func TestByMappingArenaMatchesFresh(t *testing.T) {
	inputs := []*graph.Graph{
		gen.CliqueChain(20, 6),
		gen.Karate(),
		gen.Star(50),
		gen.CliqueChain(40, 5),
	}
	var s Scratch
	dst := &graph.Graph{}
	for gi, g := range inputs {
		match := pairMatch(g.NumVertices(), g.NumVertices()/3)
		mapping, k := Relabel(exec.Background(1), g, match, nil)
		want := ByMapping(exec.Background(2), g, mapping, k, nil, nil)
		got := ByMapping(exec.Background(4), g, mapping, k, &s, dst)
		if got != dst {
			t.Fatalf("graph %d: destination not reused", gi)
		}
		sameBuckets(t, fmt.Sprintf("graph %d", gi), want, got)
		if got.TotalWeight(1) != g.TotalWeight(1) {
			t.Fatalf("graph %d: contraction changed total weight", gi)
		}
	}
}

// TestBucketReusesMapping checks that Bucket writes the mapping into mapBuf
// and that the arena run equals the fresh one.
func TestBucketReusesMapping(t *testing.T) {
	g := gen.CliqueChain(12, 4)
	match := pairMatch(g.NumVertices(), g.NumVertices()/2)
	wantG, wantMap := Bucket(exec.Background(1), g, match, nil, nil, nil)

	mapBuf := make([]int64, g.NumVertices())
	var s Scratch
	gotG, gotMap := Bucket(exec.Background(2), g, match, &s, nil, mapBuf)
	if &gotMap[0] != &mapBuf[0] {
		t.Fatal("Bucket did not reuse the mapping buffer")
	}
	for i := range wantMap {
		if wantMap[i] != gotMap[i] {
			t.Fatalf("mapping[%d] = %d, want %d", i, gotMap[i], wantMap[i])
		}
	}
	sameBuckets(t, "bucket arena", wantG, gotG)
}

// TestByMappingWholeGroups collapses a graph to a handful of communities
// under an arbitrary (non-matching) mapping, as the refinement rebuild does,
// through a reused scratch.
func TestByMappingWholeGroups(t *testing.T) {
	g := gen.CliqueChain(9, 5)
	n := g.NumVertices()
	mapping := make([]int64, n)
	for i := int64(0); i < n; i++ {
		mapping[i] = i % 3
	}
	var s Scratch
	dst := &graph.Graph{}
	want := ByMapping(exec.Background(1), g, mapping, 3, nil, nil)
	for trial := 0; trial < 3; trial++ {
		sameBuckets(t, fmt.Sprintf("trial %d", trial), want, ByMapping(exec.Background(3), g, mapping, 3, &s, dst))
	}
}

// TestByMappingEmpty covers the degenerate empty graph.
func TestByMappingEmpty(t *testing.T) {
	g := graph.NewEmpty(0)
	var s Scratch
	ng := ByMapping(exec.Background(2), g, nil, 0, &s, &graph.Graph{})
	if ng.NumVertices() != 0 || ng.NumEdges() != 0 {
		t.Fatalf("empty contraction produced %d vertices / %d edges",
			ng.NumVertices(), ng.NumEdges())
	}
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
}
