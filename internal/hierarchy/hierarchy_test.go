package hierarchy_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
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

// eager composes levels per vertex into one partition per level: part[l][v]
// is v's community after l levels. It is the reference every query of a
// dendrogram over the same levels must match.
func eager(n int64, levels [][]int64) [][]int64 {
	part := [][]int64{make([]int64, n)}
	for v := range part[0] {
		part[0][v] = int64(v)
	}
	for _, level := range levels {
		prev, next := part[len(part)-1], make([]int64, n)
		for v := range next {
			next[v] = level[prev[v]]
		}
		part = append(part, next)
	}
	return part
}

// sample returns about 16 evenly spaced values in [0, k), always k-1.
func sample(k int64) []int64 {
	var out []int64
	step := k/16 + 1
	for x := int64(0); x < k-1; x += step {
		out = append(out, x)
	}
	if k > 0 {
		out = append(out, k-1)
	}
	return out
}

// checkAgainstEager requires every answer of d to match the eager
// composition of levels: the counts, Final, MergedAt, every AtLevel, a
// CutAtCount at and just below every level's count, Members for a sample of
// communities per level and TraceVertex for a sample of vertices, plus the
// out-of-range rejections.
func checkAgainstEager(t testing.TB, d *hierarchy.Dendrogram, n int64, levels [][]int64) {
	t.Helper()
	part := eager(n, levels)
	L := len(levels)
	counts := make([]int64, L+1)
	for l, p := range part {
		var maxID int64 = -1
		for _, c := range p {
			maxID = max(maxID, c)
		}
		seen := make([]bool, maxID+1)
		for _, c := range p {
			if !seen[c] {
				seen[c] = true
				counts[l]++
			}
		}
		if counts[l] != maxID+1 {
			t.Fatalf("level %d: accepted ids up to %d over %d communities", l, maxID, counts[l])
		}
	}
	if d.NumLevels() != L || d.NumVertices() != n || !slices.Equal(d.CommunityCounts(), counts) {
		t.Fatalf("levels %d vertices %d counts %v, want %d, %d, %v",
			d.NumLevels(), d.NumVertices(), d.CommunityCounts(), L, n, counts)
	}
	if final, k := d.Final(); k != counts[L] || !slices.Equal(final, part[L]) {
		t.Fatalf("Final: %d communities, want %d, or partition differs", k, counts[L])
	}
	for l := 0; l <= L; l++ {
		comm, k, err := d.AtLevel(l)
		if err != nil || k != counts[l] || !slices.Equal(comm, part[l]) {
			t.Fatalf("AtLevel(%d): k=%d err=%v, want k=%d and the eager partition", l, k, err, counts[l])
		}
		if l < L {
			if m, err := d.MergedAt(l); err != nil || m != counts[l]-counts[l+1] {
				t.Fatalf("MergedAt(%d) = %d, %v", l, m, err)
			}
		}
		for _, target := range []int64{counts[l], counts[l] - 1} {
			want := L
			for c := 0; c < L; c++ {
				if counts[c] <= target {
					want = c
					break
				}
			}
			comm, k, got := d.CutAtCount(target)
			if got != want || k != counts[want] || !slices.Equal(comm, part[want]) {
				t.Fatalf("CutAtCount(%d): level %d with %d communities, want level %d", target, got, k, want)
			}
		}
		for _, c := range sample(counts[l]) {
			var want []int64
			for v, cc := range part[l] {
				if cc == c {
					want = append(want, int64(v))
				}
			}
			if got, err := d.Members(l, c); err != nil || !slices.Equal(got, want) {
				t.Fatalf("Members(%d, %d) = %v, %v, want %v", l, c, got, err, want)
			}
		}
		if _, err := d.Members(l, counts[l]); err == nil {
			t.Fatalf("Members(%d, %d) accepted a community past the count", l, counts[l])
		}
	}
	for _, v := range sample(n) {
		want := make([]int64, L+1)
		for l := range want {
			want[l] = part[l][v]
		}
		if got, err := d.TraceVertex(v); err != nil || !slices.Equal(got, want) {
			t.Fatalf("TraceVertex(%d) = %v, %v, want %v", v, got, err, want)
		}
	}
	if _, _, err := d.AtLevel(L + 1); err == nil {
		t.Fatal("AtLevel accepted a level past the last")
	}
	if _, err := d.MergedAt(L); err == nil {
		t.Fatal("MergedAt accepted the last level")
	}
	if _, err := d.Members(-1, 0); err == nil {
		t.Fatal("Members accepted a negative level")
	}
	if _, err := d.TraceVertex(n); err == nil {
		t.Fatal("TraceVertex accepted a vertex past n")
	}
}

// TestNewMatchesEagerComposition checks every query of New's dendrogram
// against the eager per-vertex composition over a random multi-level
// hierarchy, that AtLevel hands out a fresh slice, and that the level
// checks report the lowest empty community, a negative id, and an id beyond
// the level's entry count.
func TestNewMatchesEagerComposition(t *testing.T) {
	const n = 5000
	r := par.NewRNG(5)
	var levels [][]int64
	for k := int64(n); k > 1; {
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
		k = next
	}
	d, err := hierarchy.New(n, levels)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstEager(t, d, n, levels)
	comm, _, _ := d.AtLevel(2)
	comm[0] = -1
	if again, _, _ := d.AtLevel(2); again[0] < 0 {
		t.Fatal("AtLevel returned a shared slice")
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
		_, err := hierarchy.New(n, [][]int64{level})
		if want := fmt.Sprintf("community %d empty", empty); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("gap at %d: err %v, want %q", empty, err, want)
		}
	}
	level := make([]int64, n)
	level[n-3] = -1
	if _, err := hierarchy.New(n, [][]int64{level}); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative id: err %v", err)
	}
	// An id beyond the entry count leaves a gap whatever the rest holds;
	// it must be refused without flags sized from it.
	level[n-3] = 1 << 60
	if _, err := hierarchy.New(n, [][]int64{level}); err == nil || !strings.Contains(err.Error(), "only 5000 entries") {
		t.Fatalf("oversized id: err %v", err)
	}
}

// TestEngineDendrogramsMatchEager checks the dendrograms the engine builds
// itself: a 4-shard run to its local maximum and a chain of incremental
// re-detections with kept levels. A sharded run's level 0 (vertex →
// per-shard community) is read back through AtLevel(1), which copies the
// stored map; every deeper answer is checked against its eager composition
// with the stitch's own Levels.
func TestEngineDendrogramsMatchEager(t *testing.T) {
	ctx := context.Background()
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(2500, 13))
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	opt := core.Options{Threads: 2}
	csr := graph.ToCSR(2, g)
	graph.SortCSRRows(2, csr)
	sres, err := core.DetectSharded(ctx, csr, core.ShardOptions{Shards: 4, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Stitch.Termination != core.TermLocalMax || len(sres.Stitch.Levels) < 2 {
		t.Fatalf("stitch ended %s after %d levels, want a multi-level local maximum",
			sres.Stitch.Termination, len(sres.Stitch.Levels))
	}
	level0, _, err := sres.Dendrogram.AtLevel(1)
	if err != nil {
		t.Fatal(err)
	}
	for v, c := range level0 {
		if sres.CommunityOf[v] != sres.Stitch.CommunityOf[c] {
			t.Fatalf("vertex %d: CommunityOf %d, stitch %d", v, sres.CommunityOf[v], sres.Stitch.CommunityOf[c])
		}
	}
	checkAgainstEager(t, sres.Dendrogram, n, append([][]int64{level0}, sres.Stitch.Levels...))

	boot, err := core.DetectContext(ctx, g, opt)
	if err != nil {
		t.Fatal(err)
	}
	dend, err := hierarchy.FromFinal(n, boot.CommunityOf, boot.NumCommunities)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := gen.Deltas(g, gen.DeltaConfig{
		Batches: 3, BatchSize: int(g.NumEdges() / 100), DeleteFrac: 0.5, MaxWeight: 3, Hubs: 32, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	ov := graph.NewOverlay(2, g)
	for i, batch := range batches {
		ir, err := core.DetectIncrementalWithContext(ctx, ov, dend, batch, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(ir.Levels) < 2 {
			t.Fatalf("batch %d kept %d levels", i, len(ir.Levels))
		}
		checkAgainstEager(t, ir.Dendrogram, n, ir.Levels)
		final, _ := ir.Dendrogram.Final()
		if !slices.Equal(final, ir.CommunityOf) || &final[0] == &ir.CommunityOf[0] {
			t.Fatalf("batch %d: Final differs from or aliases CommunityOf", i)
		}
		dend = ir.Dendrogram
	}
}

// TestStarTailMemory pins a dendrogram at O(n + Σ level sizes): over a
// star-tail chain (n vertices into q communities, then one leaf joining the
// hub per level), New, Final and one AtLevel allocate at most
// 4 × (n + Σ level sizes) × 8 B, while one n-wide partition per level would
// take more than 100 times that.
func TestStarTailMemory(t *testing.T) {
	const n, q = 1 << 20, 2048
	levels := [][]int64{make([]int64, n)}
	for v := range levels[0] {
		levels[0][v] = int64(v % q)
	}
	for k := int64(q); k > 1; k-- {
		level := make([]int64, k)
		for c := range level[:k-1] {
			level[c] = int64(c)
		}
		levels = append(levels, level) // level[k-1] = 0: the leaf joins the hub
	}
	words := int64(n)
	for _, level := range levels {
		words += int64(len(level))
	}
	bound := 4 * 8 * words
	if perLevel := 8 * n * int64(len(levels)+1); perLevel <= 100*bound {
		t.Fatalf("sizes too small: per-level partitions %d B within 100x the bound %d B", perLevel, bound)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := hierarchy.New(n, levels)
	if err != nil {
		t.Fatal(err)
	}
	final, k := d.Final()
	mid, midK, err := d.AtLevel(len(levels) / 2)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > uint64(bound) {
		t.Fatalf("New+Final+AtLevel allocated %d B, bound %d B", got, bound)
	}
	if k != 1 || final[n-1] != 0 || midK != q-int64(len(levels)/2)+1 || mid[q-1] != 0 || mid[1] != 1 {
		t.Fatalf("final k=%d, level %d k=%d", k, len(levels)/2, midK)
	}
}

// decodeChain reads a fuzz input as a level chain: 0xFF separates levels,
// 0xFE is the id 1<<60, and any other byte b is the id b%32 - 2, so ids run
// from -2 to 29. An empty input is the empty chain.
func decodeChain(data []byte) [][]int64 {
	if len(data) == 0 {
		return nil
	}
	var levels [][]int64
	for _, raw := range bytes.Split(data, []byte{0xFF}) {
		level := make([]int64, len(raw))
		for i, b := range raw {
			level[i] = int64(b%32) - 2
			if b == 0xFE {
				level[i] = 1 << 60
			}
		}
		levels = append(levels, level)
	}
	return levels
}

// encodeChain is decodeChain's inverse for ids in [-2, 29] and 1<<60.
func encodeChain(levels ...[]int64) []byte {
	var out []byte
	for l, level := range levels {
		if l > 0 {
			out = append(out, 0xFF)
		}
		for _, c := range level {
			if c == 1<<60 {
				out = append(out, 0xFE)
			} else {
				out = append(out, byte(c+2))
			}
		}
	}
	return out
}

// FuzzNew feeds New hostile level chains: wrong lengths, negative,
// oversized and sparse ids, empty chains and negative or zero vertex
// counts. Each must be refused or give a dendrogram whose every answer
// matches the eager composition.
func FuzzNew(f *testing.F) {
	f.Add(int8(4), encodeChain([]int64{0, 1, 0, 1}))
	f.Add(int8(4), encodeChain([]int64{0, 0, 1, 1}, []int64{0, 0}))
	f.Add(int8(6), encodeChain([]int64{2, 0, 1, 1, 0, 2}, []int64{1, 0, 0}, []int64{0}))
	f.Add(int8(4), encodeChain([]int64{1, 1, 2, 2}))             // gap at the first id
	f.Add(int8(6), encodeChain([]int64{0, 0, 2, 2, 3, 3}))       // gap in the middle
	f.Add(int8(5), encodeChain([]int64{0, 1, 1, 3, 3}))          // gap below the maximum
	f.Add(int8(4), encodeChain([]int64{0, 0, 1, -1}))            // negative id
	f.Add(int8(4), encodeChain([]int64{0, 0, 1, 1 << 60}))       // oversized id
	f.Add(int8(4), encodeChain([]int64{0, 0, 1}))                // wrong length at level 0
	f.Add(int8(4), encodeChain([]int64{0, 0, 1, 1}, []int64{0})) // wrong length at level 1
	f.Add(int8(3), []byte{})
	f.Add(int8(0), []byte{})
	f.Add(int8(0), []byte{0xFF})
	f.Add(int8(-1), []byte{})
	f.Fuzz(func(t *testing.T, n int8, data []byte) {
		levels := decodeChain(data)
		d, err := hierarchy.New(int64(n), levels)
		if err != nil {
			return
		}
		checkAgainstEager(t, d, int64(n), levels)
	})
}
