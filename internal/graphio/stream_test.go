package graphio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

// sliceSource adapts a fixed (u, v, w) triple slice into a deterministic
// EdgeSource.
func sliceSource(triples [][3]int64) EdgeSource {
	return func(yield func(u, v, w int64) error) error {
		for _, e := range triples {
			if err := yield(e[0], e[1], e[2]); err != nil {
				return err
			}
		}
		return nil
	}
}

// randomTriples builds a deterministic messy edge stream: duplicates in both
// orientations, self-loops, and skewed weights.
func randomTriples(n int64, count int, seed uint64) [][3]int64 {
	r := par.NewRNG(seed)
	out := make([][3]int64, count)
	for i := range out {
		u := int64(r.Uint64() % uint64(n))
		v := int64(r.Uint64() % uint64(n))
		w := int64(r.Uint64()%7) + 1
		out[i] = [3]int64{u, v, w}
	}
	return out
}

// materialize builds the reference in-memory graph for a triple stream using
// the standard builder (duplicates accumulate, self-loops fold into Self).
func materialize(t *testing.T, n int64, triples [][3]int64) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, len(triples))
	for i, e := range triples {
		edges[i] = graph.Edge{U: e[0], V: e[1], W: e[2]}
	}
	g, err := graph.Build(2, n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStreamMappedMatchesBatchWriter(t *testing.T) {
	// The central streaming gate: for the same logical graph, the
	// bounded-memory two-pass writer must produce byte-identical output to
	// the batch WriteMapped path, across bucket budgets from "everything in
	// one bucket" down to "a handful of vertices per bucket".
	const n = 200
	triples := randomTriples(n, 3000, 42)
	g := materialize(t, n, triples)
	var want bytes.Buffer
	if err := WriteMapped(&want, 2, g); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, budget := range []int64{0, 1 << 20, 256, 64, 17} {
		path := filepath.Join(dir, "stream.mmapcsr")
		stats, err := StreamMapped(path, n, sliceSource(triples), StreamOptions{MaxBufferedEdges: budget})
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("budget %d: streamed bytes differ from batch writer (%d buckets)", budget, stats.Buckets)
		}
		if stats.Vertices != n || stats.Edges != g.NumEdges() || stats.TotalWeight != g.TotalWeight(1) {
			t.Fatalf("budget %d: stats %+v disagree with graph |E|=%d totW=%d",
				budget, stats, g.NumEdges(), g.TotalWeight(1))
		}
		if budget == 64 && stats.Buckets < 4 {
			t.Fatalf("budget 64 produced only %d buckets; the multi-bucket path is untested", stats.Buckets)
		}
	}
}

func TestStreamMappedRMATMatchesBatch(t *testing.T) {
	// genrmat -stream equivalence: the serial streaming replay must produce
	// the byte-identical file to generating the full R-MAT edge slice and
	// batch-writing it.
	cfg := gen.DefaultRMAT(8, 99)
	g, err := gen.RMATGraph(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteMapped(&want, 2, g); err != nil {
		t.Fatal(err)
	}
	n, src, err := gen.StreamRMAT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rmat.mmapcsr")
	if _, err := StreamMapped(path, n, EdgeSource(src), StreamOptions{MaxBufferedEdges: 1024}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("streamed R-MAT bytes differ from batch RMATGraph + WriteMapped")
	}
}

func TestStreamMappedEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.mmapcsr")
	stats, err := StreamMapped(path, 5, sliceSource(nil), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Edges != 0 || stats.RawEntries != 0 {
		t.Fatalf("stats %+v for empty stream", stats)
	}
	mp, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mp.Close()
	if mp.NumVertices() != 5 || mp.NumEdges() != 0 {
		t.Fatalf("|V|=%d |E|=%d, want 5/0", mp.NumVertices(), mp.NumEdges())
	}
}

func TestStreamMappedRejectsBadEdges(t *testing.T) {
	dir := t.TempDir()
	for name, triples := range map[string][][3]int64{
		"negative id":     {{-1, 2, 1}},
		"id out of range": {{0, 9, 1}},
		"zero weight":     {{0, 1, 0}},
		"negative weight": {{0, 1, -3}},
	} {
		path := filepath.Join(dir, "bad.mmapcsr")
		if _, err := StreamMapped(path, 5, sliceSource(triples), StreamOptions{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestStreamMappedRejectsNondeterministicSource(t *testing.T) {
	// The two-pass design requires identical replay; a source that yields
	// extra edges on the second pass must be caught, not silently corrupt
	// the file.
	calls := 0
	src := EdgeSource(func(yield func(u, v, w int64) error) error {
		calls++
		edges := [][3]int64{{0, 1, 1}, {1, 2, 1}}
		if calls > 1 {
			edges = append(edges, [][3]int64{{2, 3, 1}, {3, 4, 1}}...)
		}
		for _, e := range edges {
			if err := yield(e[0], e[1], e[2]); err != nil {
				return err
			}
		}
		return nil
	})
	_, err := StreamMapped(filepath.Join(t.TempDir(), "nd.mmapcsr"), 5, src, StreamOptions{})
	if err == nil || !strings.Contains(err.Error(), "not deterministic") {
		t.Fatalf("nondeterministic source: err = %v, want 'not deterministic'", err)
	}
}

// TestStreamMappedRejectsRowDrift replays a source whose second pass keeps
// the entry total but moves an entry from row 0 to row 1: rows are sized by
// the first pass's degrees, so the drift must surface as an error.
func TestStreamMappedRejectsRowDrift(t *testing.T) {
	calls := 0
	src := EdgeSource(func(yield func(u, v, w int64) error) error {
		calls++
		edges := [][3]int64{{0, 1, 1}, {0, 2, 1}}
		if calls > 1 {
			edges = [][3]int64{{1, 2, 1}, {0, 1, 1}}
		}
		for _, e := range edges {
			if err := yield(e[0], e[1], e[2]); err != nil {
				return err
			}
		}
		return nil
	})
	_, err := StreamMapped(filepath.Join(t.TempDir(), "drift.mmapcsr"), 3, src, StreamOptions{})
	if err == nil || !strings.Contains(err.Error(), "not deterministic") {
		t.Fatalf("row drift: err = %v, want 'not deterministic'", err)
	}
}
