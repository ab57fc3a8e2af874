package core

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/hierarchy"
	"repro/internal/obs"
)

// TestDetectLedgerCrossChecksHierarchy is the acceptance check for the
// convergence ledger: every row's vertex accounting must agree with the
// dendrogram built from the same run's contraction maps, and the
// MergedVertices column must sum to n − (final community count).
func TestDetectLedgerCrossChecksHierarchy(t *testing.T) {
	g, err := gen.RMATGraph(4, gen.DefaultRMAT(10, 42))
	if err != nil {
		t.Fatal(err)
	}
	led := obs.NewLedger()
	res, err := DetectContext(context.Background(), g, Options{Threads: 4, Validate: true, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	rows := led.Levels()
	if len(rows) == 0 {
		t.Fatal("ledger recorded no levels")
	}
	if len(rows) != len(res.Levels) {
		t.Fatalf("ledger has %d rows, result has %d levels", len(rows), len(res.Levels))
	}
	d, err := hierarchy.New(g.NumVertices(), res.Levels)
	if err != nil {
		t.Fatal(err)
	}
	counts := d.CommunityCounts()
	var mergedSum int64
	for i, row := range rows {
		if row.Level != i {
			t.Fatalf("row %d has level %d", i, row.Level)
		}
		if row.Vertices != counts[i] {
			t.Fatalf("level %d: ledger enters with %d vertices, dendrogram says %d",
				i, row.Vertices, counts[i])
		}
		if row.OutVertices != counts[i+1] {
			t.Fatalf("level %d: ledger leaves with %d vertices, dendrogram says %d",
				i, row.OutVertices, counts[i+1])
		}
		want, err := d.MergedAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if row.MergedVertices != want {
			t.Fatalf("level %d: MergedVertices %d, dendrogram merged %d",
				i, row.MergedVertices, want)
		}
		mergedSum += row.MergedVertices
		if row.MergeFraction <= 0 || row.MergeFraction > 1 {
			t.Fatalf("level %d: merge fraction %v outside (0,1]", i, row.MergeFraction)
		}
		if row.MatchedPairs <= 0 || row.MatchedPairs > row.PositiveEdges {
			t.Fatalf("level %d: %d matched pairs vs %d positive edges",
				i, row.MatchedPairs, row.PositiveEdges)
		}
		if row.MatchPasses <= 0 || len(row.Drain) != row.MatchPasses {
			t.Fatalf("level %d: %d passes but drain curve %v", i, row.MatchPasses, row.Drain)
		}
		if row.Drain[0] > row.Vertices {
			t.Fatalf("level %d: drain starts at %d with only %d vertices",
				i, row.Drain[0], row.Vertices)
		}
		var histSum int64
		for _, c := range row.SizeHist {
			histSum += c
		}
		if histSum != row.OutVertices {
			t.Fatalf("level %d: size histogram holds %d communities, want %d",
				i, histSum, row.OutVertices)
		}
		if row.SchedImbalance != 0 {
			if row.SchedImbalance < 1 || row.SchedBound < 1 {
				t.Fatalf("level %d: imbalance %v, bound %v below perfect balance",
					i, row.SchedImbalance, row.SchedBound)
			}
		}
	}
	if want := g.NumVertices() - res.NumCommunities; mergedSum != want {
		t.Fatalf("merged vertices sum to %d, want n - final = %d", mergedSum, want)
	}
	// Greedy merging over positive scores must not drive the metric down.
	for _, w := range led.Warnings() {
		if w.Code == obs.WarnMetricDecrease {
			t.Fatalf("unexpected metric decrease warning: %+v", w)
		}
	}
}

// TestDetectLedgerResetBetweenRuns pins that a reused ledger reflects only
// the latest run (the engine resets it), so bench loops don't accumulate.
func TestDetectLedgerResetBetweenRuns(t *testing.T) {
	g := gen.CliqueChain(6, 5)
	led := obs.NewLedger()
	var prev int
	for run := 0; run < 3; run++ {
		if _, err := DetectContext(context.Background(), g, Options{Threads: 2, Ledger: led}); err != nil {
			t.Fatal(err)
		}
		n := led.NumLevels()
		if n == 0 {
			t.Fatal("no levels recorded")
		}
		if run > 0 && n != prev {
			t.Fatalf("run %d recorded %d levels, previous run %d", run, n, prev)
		}
		prev = n
	}
}

// TestDetectNilLedgerIsNoop pins the disabled path: a nil ledger must not
// change the result.
func TestDetectNilLedgerIsNoop(t *testing.T) {
	g := gen.Karate()
	with, err := DetectContext(context.Background(), g, Options{Threads: 2, Ledger: obs.NewLedger()})
	if err != nil {
		t.Fatal(err)
	}
	without, err := DetectContext(context.Background(), g, Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if with.NumCommunities != without.NumCommunities ||
		with.FinalModularity != without.FinalModularity {
		t.Fatalf("ledger changed the result: %d/%v vs %d/%v",
			with.NumCommunities, with.FinalModularity,
			without.NumCommunities, without.FinalModularity)
	}
}
