package hierarchy_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/hierarchy"
	"repro/internal/metrics"
	"repro/internal/par"
)

func TestNewValidatesLevels(t *testing.T) {
	// 4 vertices → 2 communities → 1 community.
	d, err := hierarchy.New(4, [][]int64{{0, 0, 1, 1}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumLevels() != 2 || d.NumVertices() != 4 {
		t.Fatalf("levels=%d vertices=%d", d.NumLevels(), d.NumVertices())
	}
	counts := d.CommunityCounts()
	for i, want := range []int64{4, 2, 1} {
		if counts[i] != want {
			t.Fatalf("counts = %v", counts)
		}
	}
	bad := [][][]int64{
		{{0, 0, 1}},         // wrong length at level 0
		{{0, 0, 2, 2}},      // community 1 empty
		{{0, 0, 1, -1}},     // negative id
		{{0, 0, 1, 1}, {0}}, // level 1 wrong length
	}
	for i, levels := range bad {
		if _, err := hierarchy.New(4, levels); err == nil {
			t.Errorf("bad levels %d accepted", i)
		}
	}
}

// TestNewCopiesCallerLevels pins the ownership rule: New leaves the
// caller's level slices free to modify, NewExec takes them over.
func TestNewCopiesCallerLevels(t *testing.T) {
	levels := [][]int64{{0, 0, 1, 1}, {0, 0}}
	d, err := hierarchy.New(4, levels)
	if err != nil {
		t.Fatal(err)
	}
	levels[0][0] = 1
	if comm, _, _ := d.AtLevel(1); comm[0] != 0 {
		t.Fatalf("editing the caller's level 0 changed the level-1 partition to %v", comm)
	}
	owned := [][]int64{{0, 0, 1, 1}}
	d, err = hierarchy.NewExec(exec.Background(1), 4, owned)
	if err != nil {
		t.Fatal(err)
	}
	if comm, _ := d.Final(); &comm[0] != &owned[0][0] {
		t.Fatal("NewExec copied the level it takes over")
	}
}

func TestAtLevelAndFinal(t *testing.T) {
	d, err := hierarchy.New(4, [][]int64{{0, 0, 1, 1}, {0, 0}})
	if err != nil {
		t.Fatal(err)
	}
	comm, k, err := d.AtLevel(0)
	if err != nil || k != 4 {
		t.Fatalf("level 0: k=%d err=%v", k, err)
	}
	for v, c := range comm {
		if c != int64(v) {
			t.Fatal("level 0 not identity")
		}
	}
	comm, k, _ = d.AtLevel(1)
	if k != 2 || comm[0] != comm[1] || comm[2] != comm[3] || comm[0] == comm[2] {
		t.Fatalf("level 1: %v k=%d", comm, k)
	}
	fcomm, fk := d.Final()
	if fk != 1 || fcomm[0] != 0 || fcomm[3] != 0 {
		t.Fatalf("final: %v k=%d", fcomm, fk)
	}
	if _, _, err := d.AtLevel(3); err == nil {
		t.Fatal("accepted out-of-range level")
	}
	if _, _, err := d.AtLevel(-1); err == nil {
		t.Fatal("accepted negative level")
	}
}

func TestCutAtCount(t *testing.T) {
	d, err := hierarchy.New(8, [][]int64{
		{0, 0, 1, 1, 2, 2, 3, 3}, // 8 → 4
		{0, 0, 1, 1},             // 4 → 2
		{0, 0},                   // 2 → 1
	})
	if err != nil {
		t.Fatal(err)
	}
	_, k, level := d.CutAtCount(5)
	if k != 4 || level != 1 {
		t.Fatalf("cut at 5: k=%d level=%d", k, level)
	}
	_, k, level = d.CutAtCount(2)
	if k != 2 || level != 2 {
		t.Fatalf("cut at 2: k=%d level=%d", k, level)
	}
	_, k, _ = d.CutAtCount(100)
	if k != 8 {
		t.Fatalf("cut at 100 should return singletons, got k=%d", k)
	}
}

func TestMembersAndTrace(t *testing.T) {
	d, err := hierarchy.New(4, [][]int64{{0, 0, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	members, err := d.Members(1, 1)
	if err != nil || len(members) != 2 || members[0] != 2 || members[1] != 3 {
		t.Fatalf("members = %v err=%v", members, err)
	}
	if _, err := d.Members(1, 9); err == nil {
		t.Fatal("accepted bad community")
	}
	trace, err := d.TraceVertex(3)
	if err != nil || trace[0] != 3 || trace[1] != 1 {
		t.Fatalf("trace = %v err=%v", trace, err)
	}
	if _, err := d.TraceVertex(99); err == nil {
		t.Fatal("accepted bad vertex")
	}
}

func TestFromEngineRun(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(800, 2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DetectContext(context.Background(), g, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := hierarchy.New(g.NumVertices(), res.Levels)
	if err != nil {
		t.Fatal(err)
	}
	// Final level must match the engine's flat output.
	fcomm, fk := d.Final()
	if fk != res.NumCommunities {
		t.Fatalf("final k=%d, engine %d", fk, res.NumCommunities)
	}
	for v := range fcomm {
		if fcomm[v] != res.CommunityOf[v] {
			t.Fatalf("vertex %d: dendrogram %d, engine %d", v, fcomm[v], res.CommunityOf[v])
		}
	}
	// Modularity along the dendrogram is non-decreasing (each level's
	// merges all had positive ΔQ).
	prev := -1.0
	for l := 1; l <= d.NumLevels(); l++ {
		comm, k, err := d.AtLevel(l)
		if err != nil {
			t.Fatal(err)
		}
		q := metrics.Modularity(2, g, comm, k)
		if q < prev-1e-9 {
			t.Fatalf("level %d modularity %v below previous %v", l, q, prev)
		}
		prev = q
	}
}

// TestNewExecAcrossThreads checks NewExec at 1, 2 and 4 workers against a
// serial composition over a random multi-level hierarchy (the first level
// doubles as the level-1 partition, every later one is composed on the
// team), and that the level checks report the lowest empty community, a
// negative id, and an id beyond the level's entry count.
func TestNewExecAcrossThreads(t *testing.T) {
	const n = 5000
	r := par.NewRNG(5)
	var levels [][]int64
	k := int64(n)
	counts := []int64{k}
	for k > 1 {
		next := k/3 + 1
		level := make([]int64, k)
		for c := range level {
			level[c] = int64(c) % next // every id in [0, next) used
		}
		for i := range level { // shuffle
			j := r.Intn(i + 1)
			level[i], level[j] = level[j], level[i]
		}
		levels = append(levels, level)
		counts = append(counts, next)
		k = next
	}
	for _, p := range []int{1, 2, 4} {
		ec := exec.New(context.Background(), p, nil)
		d, err := hierarchy.NewExec(ec, n, levels)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for l := 0; l <= len(levels); l++ {
			comm, got, _ := d.AtLevel(l)
			for v := int64(0); v < n; v++ {
				want := v
				for _, level := range levels[:l] {
					want = level[want]
				}
				if comm[v] != want {
					t.Fatalf("p=%d level %d vertex %d: %d, want %d", p, l, v, comm[v], want)
				}
			}
			if got != counts[l] {
				t.Fatalf("p=%d level %d: %d communities, want %d", p, l, got, counts[l])
			}
		}
		// Gaps at the first id, in the middle and the last id below the
		// maximum.
		for _, empty := range []int64{0, 64, 998} {
			level := make([]int64, n)
			for v := range level {
				c := int64(v) % 1000
				if c == empty {
					c = (c + 1) % 1000
				}
				level[v] = c
			}
			_, err := hierarchy.NewExec(ec, n, [][]int64{level})
			if want := fmt.Sprintf("community %d empty", empty); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("p=%d: gap at %d: err %v, want %q", p, empty, err, want)
			}
		}
		level := make([]int64, n)
		level[n-3] = -1
		if _, err := hierarchy.NewExec(ec, n, [][]int64{level}); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Fatalf("p=%d: negative id: err %v", p, err)
		}
		// An id beyond the entry count leaves a gap whatever the rest holds;
		// it must be refused without flags sized from it.
		level[n-3] = 1 << 60
		if _, err := hierarchy.NewExec(ec, n, [][]int64{level}); err == nil || !strings.Contains(err.Error(), "only 5000 entries") {
			t.Fatalf("p=%d: oversized id: err %v", p, err)
		}
		ec.Close()
	}
}
