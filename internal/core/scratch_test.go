package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/seq"
)

// detectExec runs DetectExec on a pooled execution context sized by
// opt.Threads, so a test can hand one arena s to many runs.
func detectExec(ctx context.Context, g *graph.Graph, opt Options, s *Scratch) (*Result, error) {
	ec := exec.Acquire(ctx, opt.Threads, opt.Recorder)
	defer ec.Release()
	return DetectExec(ec, g, opt, s)
}

// sameResult fails unless a and b describe the same partition and quality.
// Runs at Threads=1 are deterministic, so a reused arena and a new one must
// agree exactly.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.NumCommunities != b.NumCommunities {
		t.Fatalf("%s: %d communities vs %d", label, a.NumCommunities, b.NumCommunities)
	}
	if a.Termination != b.Termination {
		t.Fatalf("%s: termination %q vs %q", label, a.Termination, b.Termination)
	}
	if len(a.CommunityOf) != len(b.CommunityOf) {
		t.Fatalf("%s: CommunityOf length %d vs %d", label, len(a.CommunityOf), len(b.CommunityOf))
	}
	for i := range a.CommunityOf {
		if a.CommunityOf[i] != b.CommunityOf[i] {
			t.Fatalf("%s: CommunityOf[%d] = %d vs %d", label, i, a.CommunityOf[i], b.CommunityOf[i])
		}
	}
	if len(a.Sizes) != len(b.Sizes) {
		t.Fatalf("%s: Sizes length %d vs %d", label, len(a.Sizes), len(b.Sizes))
	}
	for c := range a.Sizes {
		if a.Sizes[c] != b.Sizes[c] {
			t.Fatalf("%s: Sizes[%d] = %d vs %d", label, c, a.Sizes[c], b.Sizes[c])
		}
	}
	if a.FinalModularity != b.FinalModularity {
		t.Fatalf("%s: modularity %v vs %v", label, a.FinalModularity, b.FinalModularity)
	}
	if a.FinalCoverage != b.FinalCoverage {
		t.Fatalf("%s: coverage %v vs %v", label, a.FinalCoverage, b.FinalCoverage)
	}
}

// sameAsOracle fails unless res reproduces the sequential oracle's run of
// the same stop rule exactly: every vertex's community, and the coverage and
// modularity to rounding.
func sameAsOracle(t *testing.T, label string, g *graph.Graph, res *Result, sopt seq.Options) {
	t.Helper()
	want := seq.Detect(g, sopt)
	if res.NumCommunities != want.NumCommunities {
		t.Fatalf("%s: %d communities, oracle %d", label, res.NumCommunities, want.NumCommunities)
	}
	for v := range want.CommunityOf {
		if res.CommunityOf[v] != want.CommunityOf[v] {
			t.Fatalf("%s: vertex %d in community %d, oracle %d", label, v, res.CommunityOf[v], want.CommunityOf[v])
		}
	}
	if math.Abs(res.FinalModularity-want.Modularity) > 1e-9 || math.Abs(res.FinalCoverage-want.FinalCoverage) > 1e-9 {
		t.Fatalf("%s: modularity %v coverage %v, oracle %v %v", label,
			res.FinalModularity, res.FinalCoverage, want.Modularity, want.FinalCoverage)
	}
}

// TestArenaMatchesFresh runs a shared arena through a shrink-then-grow
// sequence of graphs and kernel combinations and checks every result against
// a run of the same options on a new arena (DetectContext). Dirty reused
// buffers must never leak into results. The rows the sequential oracle
// supports (default options and MinCoverage) must also reproduce it exactly.
func TestArenaMatchesFresh(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"cliquechain", gen.CliqueChain(24, 6)},
		{"karate", gen.Karate()},
		{"star", gen.Star(60)},
		{"cliquechain-big", gen.CliqueChain(40, 5)},
	}
	optVariants := []struct {
		name   string
		opt    Options
		oracle *seq.Options // the oracle's run of the same stop rule, if it has one
	}{
		{"default", Options{}, &seq.Options{}},
		{"edgesweep", Options{Matching: MatchEdgeSweep}, nil},
		{"sizecap", Options{MaxCommunitySize: 8}, nil},
		{"coverage", Options{MinCoverage: 0.5}, &seq.Options{MinCoverage: 0.5}},
		{"discardlevels", Options{DiscardLevels: true}, nil},
	}
	s := NewScratch()
	for _, ov := range optVariants {
		for _, tg := range graphs {
			opt := ov.opt
			opt.Threads = 1
			opt.Validate = true
			label := ov.name + "/" + tg.name

			want, err := DetectContext(context.Background(), tg.g, opt)
			if err != nil {
				t.Fatalf("%s new arena: %v", label, err)
			}
			got, err := detectExec(context.Background(), tg.g, opt, s)
			if err != nil {
				t.Fatalf("%s reused arena: %v", label, err)
			}
			sameResult(t, label, want, got)
			if ov.oracle != nil {
				sameAsOracle(t, label, tg.g, got, *ov.oracle)
			}
		}
	}
}

// TestArenaParallelRace exercises the arena across phases and trials at
// higher thread counts with invariant checking on; run under -race it
// verifies the reused buffers are handed off cleanly between the parallel
// sweeps. Parallel runs are nondeterministic, so only invariants are
// checked, not exact partitions.
func TestArenaParallelRace(t *testing.T) {
	g := gen.CliqueChain(32, 6)
	s := NewScratch()
	for trial := 0; trial < 3; trial++ {
		res, err := detectExec(context.Background(), g, Options{Threads: 4, Validate: true}, s)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		validatePartition(t, res.CommunityOf, res.NumCommunities)
		var total int64
		for _, sz := range res.Sizes {
			total += sz
		}
		if total != g.NumVertices() {
			t.Fatalf("trial %d: sizes sum to %d, want %d", trial, total, g.NumVertices())
		}
	}
}

// TestResultDoesNotAliasArena mutates every arena buffer after a run and
// checks the returned result is unchanged: results must stay valid after the
// Scratch is reused.
func TestResultDoesNotAliasArena(t *testing.T) {
	g := gen.CliqueChain(24, 6)
	s := NewScratch()
	opt := Options{Threads: 1}
	res, err := detectExec(context.Background(), g, opt, s)
	if err != nil {
		t.Fatal(err)
	}
	comm := append([]int64(nil), res.CommunityOf...)
	sizes := append([]int64(nil), res.Sizes...)
	levels := make([][]int64, len(res.Levels))
	for i, l := range res.Levels {
		levels[i] = append([]int64(nil), l...)
	}

	// Reuse the arena on a different graph, then poison what's left.
	if _, err := detectExec(context.Background(), gen.Star(80), opt, s); err != nil {
		t.Fatal(err)
	}
	for i := range s.mapping {
		s.mapping[i] = -7
	}
	for b := range s.sizes {
		for i := range s.sizes[b] {
			s.sizes[b][i] = -7
		}
	}

	for i := range comm {
		if res.CommunityOf[i] != comm[i] {
			t.Fatalf("CommunityOf[%d] changed after arena reuse", i)
		}
	}
	for c := range sizes {
		if res.Sizes[c] != sizes[c] {
			t.Fatalf("Sizes[%d] changed after arena reuse", c)
		}
	}
	for i, l := range levels {
		for j := range l {
			if res.Levels[i][j] != l[j] {
				t.Fatalf("Levels[%d][%d] changed after arena reuse", i, j)
			}
		}
	}
}

// TestSteadyStatePhasesAllocateNothing is the allocation-regression guard
// for the tentpole: with a warm arena at Threads=1 (parallel runs allocate
// in goroutine spawning) and DiscardLevels set, extra contraction phases
// must add zero allocations — the per-run total is the same whether the run
// executes 1 phase or 6, so the steady-state loop itself is off the heap.
func TestSteadyStatePhasesAllocateNothing(t *testing.T) {
	g := gen.CliqueChain(64, 8)
	s := NewScratch()
	run := func(phases int) {
		opt := Options{Threads: 1, MaxPhases: phases, DiscardLevels: true}
		if _, err := detectExec(context.Background(), g, opt, s); err != nil {
			t.Fatal(err)
		}
	}
	run(6) // warm the arena to its largest extent

	short := testing.AllocsPerRun(5, func() { run(1) })
	long := testing.AllocsPerRun(5, func() { run(6) })
	if long > short {
		t.Fatalf("6-phase run allocates more than 1-phase run: %.1f vs %.1f allocs "+
			"(steady-state phases should allocate nothing)", long, short)
	}
	// The per-run floor is the Result envelope itself: result struct,
	// CommunityOf, Stats backing array, the Sizes copy, and interface
	// boxing — a handful, not O(phases) or O(n).
	if short > 12 {
		t.Fatalf("warm 1-phase run allocates %.1f times, want a small constant", short)
	}
}

// TestSteadyStateEnsembleAllocatesOnlyResult is the same guard for the
// ensemble: on a warm arena the PLP prelabel (its CSR build's stripes and
// schedule, labels, worklists and histogram) and the matching stage after
// it reuse every buffer, so a run allocates no more than the Result
// envelope a warm 1-phase matching run allocates.
func TestSteadyStateEnsembleAllocatesOnlyResult(t *testing.T) {
	g := gen.CliqueChain(64, 8)
	s := NewScratch()
	run := func(opt Options) {
		if _, err := detectExec(context.Background(), g, opt, s); err != nil {
			t.Fatal(err)
		}
	}
	ensemble := Options{Threads: 1, Engine: EngineEnsemble, DiscardLevels: true}
	envelope := Options{Threads: 1, MaxPhases: 1, DiscardLevels: true}
	run(ensemble)
	run(Options{Threads: 1, MaxPhases: 6, DiscardLevels: true})

	want := testing.AllocsPerRun(5, func() { run(envelope) })
	got := testing.AllocsPerRun(5, func() { run(ensemble) })
	if got > want {
		t.Fatalf("warm ensemble run allocates %.1f times, the Result envelope %.1f "+
			"(the prelabel stage should reuse the arena)", got, want)
	}
}
