package core

import (
	"context"
	"testing"

	"repro/internal/gen"
)

// detectWithStats runs detection to a local maximum on a mid-sized synthetic
// graph and returns the result for invariant checks.
func detectWithStats(t *testing.T, opt Options) *Result {
	t.Helper()
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(1200, 7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectContext(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) == 0 {
		t.Fatal("detection recorded no phases")
	}
	return res
}

// TestPhaseStatsShrinkAndCoverage pins the PhaseStats invariants the
// agglomerative loop guarantees: every contraction phase strictly shrinks
// the vertex count (each phase merges at least one pair), phase indices are
// dense, and coverage — the fraction Σ self / m of input weight inside
// communities — stays in [0, 1] and never decreases under contraction
// (merging communities only moves cross weight inside; coverage is monotone
// non-decreasing, and bounded by 1).
func TestPhaseStatsShrinkAndCoverage(t *testing.T) {
	for _, threads := range []int{1, 4} {
		res := detectWithStats(t, Options{Threads: threads})
		prevVerts := int64(-1)
		prevCov := -1.0
		for i, st := range res.Stats {
			if st.Phase != i {
				t.Fatalf("threads=%d: phase %d recorded index %d", threads, i, st.Phase)
			}
			if st.Vertices <= 0 || st.Edges < 0 {
				t.Fatalf("threads=%d phase %d: bad sizes %+v", threads, i, st)
			}
			if prevVerts >= 0 && st.Vertices >= prevVerts {
				t.Fatalf("threads=%d phase %d: vertices %d did not shrink from %d",
					threads, i, st.Vertices, prevVerts)
			}
			prevVerts = st.Vertices
			if st.Coverage < 0 || st.Coverage > 1 {
				t.Fatalf("threads=%d phase %d: coverage %v outside [0,1]", threads, i, st.Coverage)
			}
			if st.Coverage < prevCov {
				t.Fatalf("threads=%d phase %d: coverage %v decreased from %v",
					threads, i, st.Coverage, prevCov)
			}
			prevCov = st.Coverage
			if st.MatchedPairs <= 0 {
				t.Fatalf("threads=%d phase %d: no matched pairs in an executed phase", threads, i)
			}
			if st.MatchedPairs*2 > st.Vertices {
				t.Fatalf("threads=%d phase %d: %d pairs among %d vertices",
					threads, i, st.MatchedPairs, st.Vertices)
			}
			if st.ScoreTime < 0 || st.MatchTime < 0 || st.ContractTime < 0 {
				t.Fatalf("threads=%d phase %d: negative kernel time %+v", threads, i, st)
			}
		}
		if res.FinalCoverage < prevCov {
			t.Fatalf("threads=%d: final coverage %v below last phase's %v",
				threads, res.FinalCoverage, prevCov)
		}
	}
}

// TestPhaseStatsMatchLevels: with DiscardLevels off, one old→new map is kept
// per executed phase, each shrinking as the stats say.
func TestPhaseStatsMatchLevels(t *testing.T) {
	res := detectWithStats(t, Options{Threads: 2})
	if len(res.Levels) != len(res.Stats) {
		t.Fatalf("%d levels for %d phases", len(res.Levels), len(res.Stats))
	}
	for i, lvl := range res.Levels {
		if int64(len(lvl)) != res.Stats[i].Vertices {
			t.Fatalf("phase %d: level maps %d vertices, stats say %d",
				i, len(lvl), res.Stats[i].Vertices)
		}
	}
	// And with DiscardLevels on, stats survive but levels are dropped.
	res2 := detectWithStats(t, Options{Threads: 2, DiscardLevels: true})
	if len(res2.Levels) != 0 {
		t.Fatalf("DiscardLevels kept %d levels", len(res2.Levels))
	}
	if len(res2.Stats) == 0 {
		t.Fatal("DiscardLevels dropped the stats too")
	}
}
