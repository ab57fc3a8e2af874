package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/seq"
)

// engineTolerance is the documented modularity tolerance between the
// PLP-family engines and the matching-agglomeration oracles (internal/seq and
// EngineMatching, which run the same algorithm): an engine run is accepted
// when its modularity is within 0.05 of the oracle's. Against the
// Louvain/CNM baselines the same tolerance applies only on graphs where the
// matching family itself tracks them (the clique chain, karate); on the
// LJ-similar generator PLP actually lands closer to Louvain than the matching
// engine does, so the PLP-vs-Louvain bound is asserted there too.
//
// Documented exceptions, measured and intentional:
//   - Karate (n=34): label propagation floods the tiny dense graph into two
//     giant labels before the bounded prelabel can stop it (Q≈0.26 vs
//     matching's 0.38). The PLP-family engines are built for graphs orders of
//     magnitude larger; the gate on karate only requires a sane partition.
//   - R-MAT at the PLP *fixpoint*: weak community structure lets the flood
//     run to Q≈0, which is exactly why EngineEnsemble bounds the prelabel at
//     DefaultEnsembleSweeps (the bounded ensemble beats EngineMatching on the
//     same graph; see TestEngineQualityRMAT).
const engineTolerance = 0.05

var allEngines = []Engine{EngineMatching, EnginePLP, EngineEnsemble}

func detectEngine(t *testing.T, g *graph.Graph, e Engine, threads int) *Result {
	t.Helper()
	res, err := DetectContext(context.Background(), g, Options{Threads: threads, Engine: e, Validate: true})
	if err != nil {
		t.Fatalf("engine %s: %v", e, err)
	}
	validatePartition(t, res.CommunityOf, res.NumCommunities)
	return res
}

func TestEngineQualityCliqueChain(t *testing.T) {
	// On the canonical unambiguous-communities graph PLP finds the exact
	// clique partition, which is also the Louvain/CNM optimum — strictly
	// better than the matching engine's greedy result.
	g := gen.CliqueChain(8, 6)
	lou := baseline.Louvain(g, 1)
	cnm := baseline.CNM(g)
	sq := seq.Detect(g, seq.Options{})
	match := detectEngine(t, g, EngineMatching, 4)
	for _, e := range []Engine{EnginePLP, EngineEnsemble} {
		res := detectEngine(t, g, e, 4)
		if res.NumCommunities != 8 {
			t.Errorf("%s: %d communities for 8 cliques", e, res.NumCommunities)
		}
		for _, oracle := range []struct {
			name string
			q    float64
		}{{"louvain", lou.Modularity}, {"cnm", cnm.Modularity}, {"seq", sq.Modularity},
			{"matching", match.FinalModularity}} {
			if res.FinalModularity < oracle.q-engineTolerance {
				t.Errorf("%s modularity %.4f below %s oracle %.4f - %.2f",
					e, res.FinalModularity, oracle.name, oracle.q, engineTolerance)
			}
		}
	}
}

func TestEngineQualityLJSim(t *testing.T) {
	// The LJ-similar generator is the social-graph case the coarsening is
	// for. Ensemble must stay within tolerance of the matching family; pure
	// PLP lands near Louvain here (measured Q≈0.69 vs Louvain 0.70 and
	// matching 0.52).
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(5000, 42))
	if err != nil {
		t.Fatal(err)
	}
	lou := baseline.Louvain(g, 1)
	sq := seq.Detect(g, seq.Options{})
	match := detectEngine(t, g, EngineMatching, 4)
	ens := detectEngine(t, g, EngineEnsemble, 4)
	plpRes := detectEngine(t, g, EnginePLP, 4)
	if ens.FinalModularity < match.FinalModularity-engineTolerance {
		t.Errorf("ensemble %.4f below matching %.4f - %.2f",
			ens.FinalModularity, match.FinalModularity, engineTolerance)
	}
	if ens.FinalModularity < sq.Modularity-engineTolerance {
		t.Errorf("ensemble %.4f below seq %.4f - %.2f",
			ens.FinalModularity, sq.Modularity, engineTolerance)
	}
	if plpRes.FinalModularity < lou.Modularity-engineTolerance {
		t.Errorf("plp %.4f below louvain %.4f - %.2f",
			plpRes.FinalModularity, lou.Modularity, engineTolerance)
	}
	if plpRes.Termination != TermPLPConverged {
		t.Errorf("plp termination %q, want %q", plpRes.Termination, TermPLPConverged)
	}
}

func TestEngineQualityRMAT(t *testing.T) {
	// The bench graph family. The bounded-prelabel ensemble must hold the
	// matching engine's modularity (it measured above it: 0.224 vs 0.204);
	// this is the quality half of the 1.5x speed gate.
	if testing.Short() {
		t.Skip("R-MAT quality gate skipped in -short")
	}
	g, _, err := gen.ConnectedRMAT(0, gen.DefaultRMAT(14, 12345))
	if err != nil {
		t.Fatal(err)
	}
	match := detectEngine(t, g, EngineMatching, 4)
	ens := detectEngine(t, g, EngineEnsemble, 4)
	if ens.FinalModularity < match.FinalModularity-engineTolerance {
		t.Errorf("ensemble %.4f below matching %.4f - %.2f",
			ens.FinalModularity, match.FinalModularity, engineTolerance)
	}
}

func TestEngineKarateSane(t *testing.T) {
	// Karate is the documented PLP-family exception (see engineTolerance):
	// no parity gate, but the partition must still be valid with positive
	// modularity well above random.
	g := gen.Karate()
	for _, e := range []Engine{EnginePLP, EngineEnsemble} {
		res := detectEngine(t, g, e, 4)
		if res.FinalModularity < 0.2 {
			t.Errorf("%s karate modularity %.4f below sanity floor 0.2", e, res.FinalModularity)
		}
	}
}

// partitionHash is the parity hash of a community assignment: FNV-1a over
// the label stream. Two runs agree iff their hashes and lengths agree (used
// as the cheap cross-run gate; mismatches are re-diffed element-wise by the
// callers below).
func partitionHash(comm []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, c := range comm {
		for i := 0; i < 8; i++ {
			b[i] = byte(c >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestEngineDeterminismGate(t *testing.T) {
	// Two runs of each engine at the same thread count must produce
	// identical assignments — the PLP sweeps are synchronous two-phase
	// (schedule-independent) and the matching/contraction pipeline is
	// schedule-stable at a fixed partition, so parity hashes must match
	// exactly, arena or not.
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range allEngines {
		for _, threads := range []int{1, 4} {
			var hashes []uint64
			var first *Result
			s := NewScratch()
			for run := 0; run < 2; run++ {
				res, err := detectExec(context.Background(), g, Options{Threads: threads, Engine: e, Validate: true}, s)
				if err != nil {
					t.Fatalf("%s threads=%d run %d: %v", e, threads, run, err)
				}
				hashes = append(hashes, partitionHash(res.CommunityOf))
				if first == nil {
					first = res
					continue
				}
				if hashes[run] != hashes[0] {
					for v := range first.CommunityOf {
						if res.CommunityOf[v] != first.CommunityOf[v] {
							t.Fatalf("%s threads=%d: run %d assigns vertex %d to %d, run 0 to %d",
								e, threads, run, v, res.CommunityOf[v], first.CommunityOf[v])
						}
					}
					t.Fatalf("%s threads=%d: parity hash mismatch %x vs %x",
						e, threads, hashes[run], hashes[0])
				}
			}
		}
	}
}

func TestEngineArenaMatchesFresh(t *testing.T) {
	// The dirty-vs-new arena equivalence gate per engine: a shared Scratch
	// cycled across engines and graph sizes must reproduce runs on a new
	// arena. The matching engine's default run must also reproduce the
	// sequential oracle exactly.
	graphs := []*graph.Graph{gen.CliqueChain(24, 6), gen.Karate(), gen.CliqueChain(40, 5)}
	s := NewScratch()
	for _, e := range allEngines {
		for i, g := range graphs {
			opt := Options{Threads: 1, Engine: e, Validate: true}
			want, err := DetectContext(context.Background(), g, opt)
			if err != nil {
				t.Fatalf("%s/graph %d new arena: %v", e, i, err)
			}
			got, err := detectExec(context.Background(), g, opt, s)
			if err != nil {
				t.Fatalf("%s/graph %d reused arena: %v", e, i, err)
			}
			if e == EngineMatching {
				sameAsOracle(t, fmt.Sprintf("%s/graph %d", e, i), g, got, seq.Options{})
			}
			sameResult(t, e.String(), want, got)
		}
	}
}

func TestEnsemblePipelineShape(t *testing.T) {
	// The EPP pipeline's structure: phase 0 is the PLP stage (MatchPasses
	// carries the sweep count, bounded by the ensemble default), later phases
	// are matching levels, and the per-level mappings compose back to the
	// final assignment.
	g := gen.CliqueChain(16, 6)
	res, err := DetectContext(context.Background(), g, Options{Threads: 4, Engine: EngineEnsemble, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) < 1 || res.Stats[0].Phase != 0 {
		t.Fatalf("missing PLP phase 0 stats: %+v", res.Stats)
	}
	if res.Stats[0].MatchPasses < 1 || res.Stats[0].MatchPasses > DefaultEnsembleSweeps {
		t.Errorf("PLP stage ran %d sweeps, want 1..%d", res.Stats[0].MatchPasses, DefaultEnsembleSweeps)
	}
	for i, st := range res.Stats {
		if st.Phase != i {
			t.Errorf("Stats[%d].Phase = %d", i, st.Phase)
		}
	}
	if len(res.Levels) != len(res.Stats) {
		t.Fatalf("%d level mappings for %d phases", len(res.Levels), len(res.Stats))
	}
	comm := make([]int64, g.NumVertices())
	for v := range comm {
		comm[v] = int64(v)
	}
	for _, mapping := range res.Levels {
		for v := range comm {
			comm[v] = mapping[comm[v]]
		}
	}
	for v := range comm {
		if comm[v] != res.CommunityOf[v] {
			t.Fatalf("level composition assigns vertex %d to %d, CommunityOf says %d",
				v, comm[v], res.CommunityOf[v])
		}
	}
}

func TestEngineOptionsValidation(t *testing.T) {
	g := gen.Karate()
	bad := []Options{
		{Engine: Engine(99)},
		{Engine: EngineEnsemble, PLPMaxSweeps: -1},
		{Engine: EngineEnsemble, PLPThreshold: 1.5},
		{Engine: EngineEnsemble, PLPThreshold: -0.1},
	}
	for i, opt := range bad {
		if _, err := DetectContext(context.Background(), g, opt); err == nil {
			t.Errorf("options %d accepted: %+v", i, opt)
		}
	}
}

func TestParseEngine(t *testing.T) {
	for name, want := range map[string]Engine{
		"matching": EngineMatching, "plp": EnginePLP, "ensemble": EngineEnsemble,
	} {
		got, err := ParseEngine(name)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v", name, got, err)
		}
		if got.String() != name {
			t.Errorf("%v.String() = %q", got, got.String())
		}
	}
	if _, err := ParseEngine("leiden"); err == nil {
		t.Error("ParseEngine accepted unknown engine")
	}
}

func TestEngineLedgerStages(t *testing.T) {
	// The ensemble's ledger stream: PLP sweep rows (stage plp, Active/Changed
	// filled, no metric), one coarsen row carrying the drain curve, then
	// matching rows — and the stage guards must keep the PLP rows from
	// tripping metric-decrease or stall warnings. The LJ-similar graph keeps
	// the coarse graph mergeable so matching levels actually run (the clique
	// chain would terminate at the PLP optimum with no match rows).
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(2000, 7))
	if err != nil {
		t.Fatal(err)
	}
	led := obs.NewLedger()
	if _, err := DetectContext(context.Background(), g, Options{Threads: 4, Engine: EngineEnsemble, Ledger: led}); err != nil {
		t.Fatal(err)
	}
	rows := led.Levels()
	if len(rows) < 3 {
		t.Fatalf("only %d ledger rows", len(rows))
	}
	var plpRows, coarsenRows, matchRows int
	for i, row := range rows {
		switch obs.StageOf(row) {
		case obs.StagePLP:
			plpRows++
			if coarsenRows > 0 || matchRows > 0 {
				t.Errorf("row %d: plp row after later stages", i)
			}
			if row.Active <= 0 {
				t.Errorf("row %d: plp row with Active=%d", i, row.Active)
			}
		case obs.StageCoarsen:
			coarsenRows++
			if len(row.Drain) != plpRows {
				t.Errorf("coarsen Drain has %d entries for %d sweeps", len(row.Drain), plpRows)
			}
			if row.OutVertices >= row.Vertices {
				t.Errorf("coarsen did not shrink: %d -> %d", row.Vertices, row.OutVertices)
			}
		case obs.StageMatch:
			matchRows++
		}
	}
	if plpRows == 0 || coarsenRows != 1 || matchRows == 0 {
		t.Fatalf("stage rows plp=%d coarsen=%d match=%d", plpRows, coarsenRows, matchRows)
	}
	for _, w := range led.Warnings() {
		if w.Code == obs.WarnMetricDecrease || w.Code == obs.WarnMatchingStall {
			t.Errorf("ensemble run warned %s: %s", w.Code, w.Detail)
		}
	}
}
