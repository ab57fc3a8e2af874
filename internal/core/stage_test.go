package core

import (
	"context"
	"fmt"
	"maps"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/obs"
)

// stageGraphs are the fixed inputs of the stage tests: a skewed R-MAT graph
// and a planted-community LJSim graph.
func stageGraphs(t *testing.T) (rmat, lj *graph.Graph) {
	t.Helper()
	rmat, _, err := gen.ConnectedRMAT(2, gen.DefaultRMAT(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	lj, _, err = gen.LJSim(2, gen.DefaultLJSim(2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	return rmat, lj
}

// ns converts an exported seconds figure back to the integer nanoseconds it
// was rendered from (exact for any duration below 2^53 ns).
func ns(sec float64) int64 { return int64(math.Round(sec * 1e9)) }

// spanNS sums a recorder's exported span durations by "cat/name", in
// integer nanoseconds, and keeps the last duration of each.
func spanNS(rec *obs.Recorder) (sum, last, count map[string]int64) {
	sum, last, count = map[string]int64{}, map[string]int64{}, map[string]int64{}
	for _, sp := range rec.Export().Spans {
		key := sp.Cat + "/" + sp.Name
		d := ns(sp.DurSec)
		sum[key] += d
		last[key] = d
		count[key]++
	}
	return sum, last, count
}

// TestOneClockPerStage: every stage is timed once, by its span. PhaseStats'
// kernel times, the latency classes and the spans therefore agree to the
// nanosecond: Σ MatchTime is the match spans (plus the ensemble's PLP span,
// whose time the phase-0 row reports as its match time), Σ ContractTime the
// contract spans, Σ ScoreTime the score spans but the terminating level's
// (which has no row), and each class's sample sum its spans.
func TestOneClockPerStage(t *testing.T) {
	rmat, lj := stageGraphs(t)
	for _, gc := range []struct {
		name string
		g    *graph.Graph
	}{{"rmat", rmat}, {"ljsim", lj}} {
		for _, row := range []struct {
			name string
			opt  Options
		}{
			{"matching", Options{Engine: EngineMatching}},
			{"ensemble", Options{Engine: EngineEnsemble}},
			{"matching/refine-every-phase", Options{RefineEveryPhase: true}},
		} {
			for _, threads := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/p%d", gc.name, row.name, threads), func(t *testing.T) {
					rec := obs.New()
					opt := row.opt
					opt.Threads, opt.Recorder = threads, rec
					res, err := DetectContext(context.Background(), gc.g, opt)
					if err != nil {
						t.Fatal(err)
					}
					if res.Termination != TermLocalMax {
						t.Fatalf("termination %s, want %s", res.Termination, TermLocalMax)
					}
					var score, match, contract int64
					for _, st := range res.Stats {
						score += st.ScoreTime.Nanoseconds()
						match += st.MatchTime.Nanoseconds()
						contract += st.ContractTime.Nanoseconds()
					}
					spans, last, counts := spanNS(rec)
					if want := spans["kernel/match"] + spans["kernel/plp"]; match != want {
						t.Errorf("Σ MatchTime %d ns, match+plp spans %d ns", match, want)
					}
					if want := spans["kernel/contract"]; contract != want {
						t.Errorf("Σ ContractTime %d ns, contract spans %d ns", contract, want)
					}
					if want := spans["kernel/score"] - last["kernel/score"]; score != want {
						t.Errorf("Σ ScoreTime %d ns, score spans but the terminating level's %d ns", score, want)
					}
					lats := map[string]obs.LatencyProfile{}
					for _, lp := range rec.Latencies() {
						lats[lp.Class] = lp
					}
					for class, key := range map[string]string{
						"score":          "kernel/score",
						"match":          "kernel/match",
						"contract":       "kernel/contract",
						"match_pass":     "match/pass",
						"plp_sweep":      "kernel/plp/sweep",
						"contract_dedup": "contract/dedup",
					} {
						lp := lats[class]
						if got := ns(lp.SumSec); got != spans[key] || lp.Count != counts[key] {
							t.Errorf("class %s: %d samples, %d ns; %s spans: %d, %d ns", class, lp.Count, got, key, counts[key], spans[key])
						}
					}
					// Refinement runs on PLP's sweep loop under its own
					// sweep stage and worker regions, so it adds nothing to
					// PLP's rows.
					if opt.RefineEveryPhase {
						if counts["kernel/refine/sweep"] == 0 || counts["kernel/plp/sweep"] != 0 {
							t.Errorf("%d refine sweep spans, %d PLP sweep spans; want some and none",
								counts["kernel/refine/sweep"], counts["kernel/plp/sweep"])
						}
						for _, rp := range rec.Export().Regions {
							if strings.HasPrefix(rp.Region, "plp/") {
								t.Errorf("refinement run recorded PLP region %s", rp.Region)
							}
						}
					}
					// The terminating level's phase span closes without a
					// level sample.
					lp := lats["level"]
					wantN, wantNS := counts["phase/phase"]-1, spans["phase/phase"]-last["phase/phase"]
					if got := ns(lp.SumSec); got != wantNS || lp.Count != wantN {
						t.Errorf("class level: %d samples, %d ns; phase spans but the last: %d, %d ns", lp.Count, got, wantN, wantNS)
					}
				})
			}
		}
	}
}

// TestStageSampleCounts pins each latency class's sample count on fixed
// runs — the matching and ensemble engines, incremental re-detection along
// both seed-stage paths (MinCoverage 0 contracts the seed at once;
// MinCoverage 0.5 measures it first and contracts it in the first level),
// and a 4-shard run — and checks the structural rules behind them.
func TestStageSampleCounts(t *testing.T) {
	rmat, lj := stageGraphs(t)
	type counts = map[string]int64
	latencies := func(rec *obs.Recorder) counts {
		m := counts{}
		for _, lp := range rec.Latencies() {
			m[lp.Class] = lp.Count
		}
		return m
	}
	check := func(t *testing.T, got, want counts) {
		t.Helper()
		if !maps.Equal(got, want) {
			t.Fatalf("latency sample counts %v, want %v", got, want)
		}
	}

	for _, c := range []struct {
		name string
		g    *graph.Graph
		eng  Engine
		want counts
	}{
		{"rmat/matching", rmat, EngineMatching, counts{"detect": 1, "level": 10, "score": 11, "match": 10, "contract": 10, "match_pass": 63, "contract_dedup": 10}},
		{"rmat/ensemble", rmat, EngineEnsemble, counts{"detect": 1, "level": 7, "score": 8, "match": 7, "contract": 8, "match_pass": 26, "plp_sweep": 4, "contract_dedup": 8}},
		{"ljsim/matching", lj, EngineMatching, counts{"detect": 1, "level": 12, "score": 13, "match": 12, "contract": 12, "match_pass": 109, "contract_dedup": 12}},
		{"ljsim/ensemble", lj, EngineEnsemble, counts{"detect": 1, "level": 3, "score": 4, "match": 3, "contract": 4, "match_pass": 6, "plp_sweep": 4, "contract_dedup": 4}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := obs.New()
			res, err := DetectContext(context.Background(), c.g, Options{Threads: 2, Engine: c.eng, Recorder: rec})
			if err != nil {
				t.Fatal(err)
			}
			got := latencies(rec)
			check(t, got, c.want)
			// match_pass counts the matching's passes; the ensemble's
			// phase-0 row reports its PLP sweeps as passes.
			passes := 0
			for _, st := range res.Stats {
				passes += st.MatchPasses
			}
			plpSweeps := 0
			if c.eng == EngineEnsemble {
				plpSweeps = res.Stats[0].MatchPasses
			}
			if got["match_pass"] != int64(passes-plpSweeps) || got["plp_sweep"] != int64(plpSweeps) {
				t.Fatalf("match_pass %d, plp_sweep %d; Σ MatchPasses %d with %d PLP sweeps",
					got["match_pass"], got["plp_sweep"], passes, plpSweeps)
			}
		})
	}

	for _, c := range []struct {
		cov  float64
		want counts
	}{
		{0, counts{"detect": 1, "level": 11, "score": 12, "match": 11, "contract": 12, "match_pass": 103, "contract_dedup": 12}},
		{0.5, counts{"detect": 1, "level": 10, "score": 10, "match": 10, "contract": 11, "match_pass": 102, "contract_dedup": 11}},
	} {
		t.Run(fmt.Sprintf("incremental/cov%v", c.cov), func(t *testing.T) {
			boot, err := DetectContext(context.Background(), lj, Options{Threads: 2, MinCoverage: 0.5})
			if err != nil {
				t.Fatal(err)
			}
			dend, err := hierarchy.FromFinal(lj.NumVertices(), boot.CommunityOf, boot.NumCommunities)
			if err != nil {
				t.Fatal(err)
			}
			batches, err := gen.Deltas(lj, gen.DeltaConfig{
				Batches: 1, BatchSize: int(lj.NumEdges() / 100), DeleteFrac: 0.5, MaxWeight: 3, Hubs: 32, Seed: 9,
			})
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.New()
			_, err = DetectIncrementalWithContext(context.Background(), graph.NewOverlay(2, lj), dend, batches[0],
				Options{Threads: 2, MinCoverage: c.cov, Recorder: rec}, nil)
			if err != nil {
				t.Fatal(err)
			}
			check(t, latencies(rec), c.want)
			// The seed stage's contract span closes without a sample only on
			// the measure-only path, whose seed graph a later level builds.
			_, _, spans := spanNS(rec)
			measureOnly := int64(0)
			if c.cov > 0 {
				measureOnly = 1
			}
			if got := spans["kernel/contract"] - c.want["contract"]; got != measureOnly {
				t.Fatalf("%d contract spans without a sample, want %d", got, measureOnly)
			}
		})
	}

	t.Run("sharded/4", func(t *testing.T) {
		rec := obs.New()
		if _, err := DetectSharded(context.Background(), shardCSR(lj), ShardOptions{Shards: 4, Opt: Options{Threads: 2, Recorder: rec}}); err != nil {
			t.Fatal(err)
		}
		// Two detect samples: the stitch run's and the sharded run's own.
		check(t, latencies(rec), counts{"detect": 2, "level": 6, "score": 7, "match": 6, "contract": 6, "match_pass": 24, "contract_dedup": 6})
	})
}
