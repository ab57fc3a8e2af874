package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
)

// countdownCtx reports Canceled after its Err budget is spent. The engine
// only polls Err() at phase and kernel boundaries, so a countdown makes
// "cancelled mid-run at check #N" deterministic in a way a timer cannot.
type countdownCtx struct {
	context.Context
	mu     sync.Mutex
	budget int
}

// unlimitedChecks is a countdown budget no run spends: a run under it
// counts its checks.
const unlimitedChecks = 1 << 30

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 {
		return context.Canceled
	}
	c.budget--
	return nil
}

// checkPartial asserts the invariants every cancelled Result must satisfy:
// a valid (possibly identity) partition, and Levels that still compose to
// CommunityOf unless refined (RefineEveryPhase moves vertices across the
// recorded levels).
func checkPartial(t *testing.T, res *Result, n int64, refined bool) {
	t.Helper()
	if res == nil {
		t.Fatal("cancelled run returned nil Result")
	}
	if res.Termination != TermCanceled {
		t.Fatalf("Termination = %q, want %q", res.Termination, TermCanceled)
	}
	if int64(len(res.CommunityOf)) != n {
		t.Fatalf("CommunityOf has %d entries, want %d", len(res.CommunityOf), n)
	}
	validatePartition(t, res.CommunityOf, res.NumCommunities)
	if refined {
		return
	}
	for v := int64(0); v < n; v++ {
		c := v
		for _, level := range res.Levels {
			c = level[c]
		}
		if c != res.CommunityOf[v] {
			t.Fatalf("vertex %d: composed %d != CommunityOf %d", v, c, res.CommunityOf[v])
		}
	}
}

func TestDetectContextPreCanceled(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(2000, 11))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := DetectContext(ctx, g, Options{Threads: 2})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if len(res.Stats) != 0 {
		t.Fatalf("pre-cancelled run completed %d phases, want 0", len(res.Stats))
	}
	checkPartial(t, res, g.NumVertices(), false)
	if res.NumCommunities != g.NumVertices() {
		t.Fatalf("pre-cancelled run contracted to %d communities", res.NumCommunities)
	}
}

func TestDetectContextCancelMidRun(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name      string
		opt       Options
		minLevels int // a cancellation test needs a multi-phase run
	}{
		{"matching", Options{Engine: EngineMatching}, 3},
		{"plp", Options{Engine: EnginePLP}, 0},
		{"ensemble", Options{Engine: EngineEnsemble}, 3},
		{"matching/refine-every-phase", Options{RefineEveryPhase: true}, 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			opt := row.opt
			opt.Threads = 2
			counter := &countdownCtx{Context: context.Background(), budget: unlimitedChecks}
			full, err := detectExec(counter, g, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(full.Levels) < row.minLevels {
				t.Fatalf("workload too easy: only %d phases", len(full.Levels))
			}

			// Sweep the Err-call budget so cancellation lands at every
			// boundary the engine checks: phase top, after scoring, after
			// matching, the matching kernel's per-pass check and the
			// per-sweep check of PLP and refinement. The same arena is reused
			// across all runs, cancelled or not, to prove a cancelled run
			// leaves it usable.
			checks := unlimitedChecks - counter.budget
			s := NewScratch()
			sawMidRun := false
			for budget := 0; budget <= checks+1; budget++ {
				ctx := &countdownCtx{Context: context.Background(), budget: budget}
				res, err := detectExec(ctx, g, opt, s)
				if err == nil {
					// A run that saw no cancellation is the whole run.
					if budget < checks {
						t.Fatalf("budget %d of %d checks: nil error", budget, checks)
					}
					sameResult(t, fmt.Sprintf("budget %d", budget), res, full)
					continue
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("budget %d: error %v does not wrap context.Canceled", budget, err)
				}
				checkPartial(t, res, g.NumVertices(), opt.RefineEveryPhase)
				if len(res.Levels) > 0 && res.NumCommunities != full.NumCommunities {
					sawMidRun = true
				}
			}
			if !sawMidRun {
				t.Fatal("no budget produced a cancellation with a partial (non-empty, non-complete) hierarchy")
			}

			// The arena that served the cancelled runs still supports a clean run.
			res, err := detectExec(context.Background(), g, opt, s)
			if err != nil {
				t.Fatalf("post-cancellation run on reused arena: %v", err)
			}
			if res.Termination == TermCanceled {
				t.Fatal("uncancelled run reported TermCanceled")
			}
			validatePartition(t, res.CommunityOf, res.NumCommunities)
		})
	}
}

// TestDetectIncrementalCancelSweep drives the countdown context through an
// incremental re-detection for every Err budget up to one past the
// uncancelled run's check count. Each run applies the batch to a fresh
// overlay over the same base; a cancelled run must return an error wrapping
// context.Canceled with a consistent partial result marked TermCanceled,
// and a run with no error must be the uncancelled one.
func TestDetectIncrementalCancelSweep(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 5))
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Threads: 2}
	_, dend := bootstrapIncremental(t, g, opt)
	batches, err := gen.Deltas(g, gen.DeltaConfig{
		Batches: 1, BatchSize: int(g.NumEdges() / 100), DeleteFrac: 0.5, MaxWeight: 3, Hubs: 32, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context, s *Scratch) (*IncrementalResult, error) {
		return DetectIncrementalWithContext(ctx, graph.NewOverlay(2, g), dend, batches[0], opt, s)
	}
	counter := &countdownCtx{Context: context.Background(), budget: unlimitedChecks}
	full, err := run(counter, nil)
	if err != nil {
		t.Fatal(err)
	}
	checks := unlimitedChecks - counter.budget
	s := NewScratch()
	for budget := 0; budget <= checks+1; budget++ {
		ir, err := run(&countdownCtx{Context: context.Background(), budget: budget}, s)
		if err == nil {
			if budget < checks {
				t.Fatalf("budget %d of %d checks: nil error", budget, checks)
			}
			sameResult(t, fmt.Sprintf("budget %d", budget), ir.Result, full.Result)
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budget %d: error %v does not wrap context.Canceled", budget, err)
		}
		if ir.Termination != TermCanceled {
			t.Fatalf("budget %d: cancellation error beside a %s result", budget, ir.Termination)
		}
		checkPartial(t, ir.Result, g.NumVertices(), false)
	}
}

// TestDetectShardedCancelSweep drives the countdown context through a
// 4-shard run for every Err budget up to one past the uncancelled run's
// check count, so cancellation lands at each check of every shard and of
// the stitch. The shards poll one shared context concurrently, so which
// shard a budget cuts varies run to run; every outcome must still be either
// an error wrapping context.Canceled or the uncancelled result, and every
// budget below the check count must end in the error.
func TestDetectShardedCancelSweep(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 5))
	if err != nil {
		t.Fatal(err)
	}
	c := shardCSR(g)
	opt := ShardOptions{Shards: 4, Opt: Options{Threads: 4}}
	counter := &countdownCtx{Context: context.Background(), budget: unlimitedChecks}
	full, err := DetectSharded(counter, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	checks := unlimitedChecks - counter.budget
	cancelled := 0
	for budget := 0; budget <= checks+1; budget++ {
		res, err := DetectSharded(&countdownCtx{Context: context.Background(), budget: budget}, c, opt)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("budget %d: error %v does not wrap context.Canceled", budget, err)
			}
			cancelled++
			continue
		}
		if res.NumCommunities != full.NumCommunities {
			t.Fatalf("budget %d: nil error with %d communities, the uncancelled run has %d",
				budget, res.NumCommunities, full.NumCommunities)
		}
		for v := range full.CommunityOf {
			if res.CommunityOf[v] != full.CommunityOf[v] {
				t.Fatalf("budget %d: nil error but vertex %d in community %d, the uncancelled run says %d",
					budget, v, res.CommunityOf[v], full.CommunityOf[v])
			}
		}
	}
	if checks == 0 || cancelled != checks {
		t.Fatalf("%d of %d budgets cancelled; want every budget below the run's %d checks to", cancelled, checks+2, checks)
	}
}

func TestDetectExecSharedTeamSequentialRuns(t *testing.T) {
	// One pooled worker team serves many detections back to back — the
	// harness sweep pattern. Run under -race this also proves the pool's
	// park/wake handoff publishes loop bodies correctly between runs.
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(1500, 3))
	if err != nil {
		t.Fatal(err)
	}
	ec := exec.New(context.Background(), 4, nil)
	defer ec.Close()
	s := NewScratch()
	for run := 0; run < 5; run++ {
		res, err := DetectExec(ec, g, Options{Threads: 4}, s)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		validatePartition(t, res.CommunityOf, res.NumCommunities)
	}
	// Narrower views of the same team interleave with full-width runs.
	for _, th := range []int{1, 2, 4} {
		res, err := DetectExec(ec.WithThreads(th), g, Options{Threads: th}, s)
		if err != nil {
			t.Fatalf("threads %d: %v", th, err)
		}
		validatePartition(t, res.CommunityOf, res.NumCommunities)
	}
}
