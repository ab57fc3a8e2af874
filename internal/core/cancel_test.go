package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/gen"
)

// countdownCtx reports Canceled after its Err budget is spent. The engine
// only polls Err() at phase and kernel boundaries, so a countdown makes
// "cancelled mid-run at check #N" deterministic in a way a timer cannot.
type countdownCtx struct {
	context.Context
	mu     sync.Mutex
	budget int
}

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
// CommunityOf.
func checkPartial(t *testing.T, res *Result, n int64) {
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
	checkPartial(t, res, g.NumVertices())
	if res.NumCommunities != g.NumVertices() {
		t.Fatalf("pre-cancelled run contracted to %d communities", res.NumCommunities)
	}
}

func TestDetectContextCancelMidRun(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []Engine{EngineMatching, EnginePLP, EngineEnsemble} {
		t.Run(engine.String(), func(t *testing.T) {
			opt := Options{Threads: 2, Engine: engine}
			full, err := DetectContext(context.Background(), g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if engine != EnginePLP && len(full.Levels) < 3 {
				t.Fatalf("workload too easy: only %d phases; cancellation needs a multi-phase run", len(full.Levels))
			}

			// Sweep the Err-call budget so cancellation lands at every
			// boundary the engine checks: phase top, after scoring, after
			// matching, the matching kernel's per-pass check and PLP's
			// per-sweep check. The same arena is reused across all runs,
			// cancelled or not, to prove a cancelled run leaves it usable.
			s := NewScratch()
			sawMidRun := false
			for budget := 0; budget <= 80; budget++ {
				ctx := &countdownCtx{Context: context.Background(), budget: budget}
				res, err := detectExec(ctx, g, opt, s)
				if err == nil {
					// A run that saw no cancellation is the whole run.
					if res.Termination != full.Termination || res.NumCommunities != full.NumCommunities {
						t.Fatalf("budget %d: nil error with %s at %d communities, the full run ends %s at %d",
							budget, res.Termination, res.NumCommunities, full.Termination, full.NumCommunities)
					}
					continue
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("budget %d: error %v does not wrap context.Canceled", budget, err)
				}
				checkPartial(t, res, g.NumVertices())
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
	const unlimited = 1 << 30
	counter := &countdownCtx{Context: context.Background(), budget: unlimited}
	full, err := DetectSharded(counter, c, opt)
	if err != nil {
		t.Fatal(err)
	}
	checks := unlimited - counter.budget
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
