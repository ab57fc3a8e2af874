package graph

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/par"
)

// referenceCompact is the builder-fed fold that Overlay.Compact replaced,
// kept only as the differential reference: it materializes o's merged view
// one stored row at a time, in (U, V) order, as an edge list and hands it
// to Build. For each bucket owner x the walk merges the base bucket
// (shadowed entries taking their patched weight), the live patch-only
// entries x owns under StoredOrder, and x's self-loop at its V == x slot.
func referenceCompact(t *testing.T, o *Overlay) *Graph {
	t.Helper()
	g := o.base
	n := g.NumVertices()
	var edges []Edge
	for x := int64(0); x < n; x++ {
		r := o.rowOf[x]
		self := g.Self[x]
		if r != nil && r.selfSet {
			self = r.self
		}
		emit := func(v, w int64) {
			if self > 0 && x < v {
				edges = append(edges, Edge{x, x, self})
				self = 0
			}
			edges = append(edges, Edge{x, v, w})
		}
		e, pi := g.Start[x], 0
		for e < g.End[x] || (r != nil && pi < len(r.nbr)) {
			if r == nil || pi >= len(r.nbr) {
				emit(g.V[e], g.W[e])
				e++
				continue
			}
			pv := r.nbr[pi]
			switch {
			case e >= g.End[x] || pv < g.V[e]:
				if !r.inBase[pi] && r.w[pi] > 0 {
					if f, _ := StoredOrder(x, pv); f == x {
						emit(pv, r.w[pi])
					}
				}
				pi++
			case pv == g.V[e]:
				if r.w[pi] > 0 {
					emit(pv, r.w[pi])
				}
				e++
				pi++
			default:
				emit(g.V[e], g.W[e])
				e++
			}
		}
		if self > 0 {
			edges = append(edges, Edge{x, x, self})
		}
	}
	want, err := Build(1, n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// requireSameArrays fails unless got and want agree in every array the
// graph stores, slot for slot.
func requireSameArrays(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: |V|=%d |E|=%d, reference |V|=%d |E|=%d", what,
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for _, a := range []struct {
		name      string
		got, want []int64
	}{
		{"V", got.V, want.V}, {"W", got.W, want.W},
		{"Self", got.Self, want.Self}, {"Start", got.Start, want.Start}, {"End", got.End, want.End},
	} {
		if !slices.Equal(a.got, a.want) {
			t.Fatalf("%s: %s = %v, reference %v", what, a.name, a.got, a.want)
		}
	}
}

// compactTestBase is a hub-heavy graph over n vertices whose upper half is
// isolated, so inserts there grow empty base buckets. With contracted set
// it is laid out the way contraction leaves a graph: buckets in descending
// vertex order with a gap after each, entries in reverse V order.
func compactTestBase(r *par.RNG, n int64, contracted bool) *Graph {
	var edges []Edge
	for i := 0; i < int(n)*3; i++ {
		u := r.Int63n(n / 2)
		if r.Intn(3) == 0 {
			u = r.Int63n(4) // hubs
		}
		edges = append(edges, Edge{u, r.Int63n(n / 2), r.Int63n(5) + 1})
	}
	edges = append(edges, Edge{1, 1, 3}, Edge{5, 5, 2})
	g := MustBuild(1, n, edges)
	if !contracted {
		return g
	}
	c := &Graph{}
	c.ResizeVertices(n)
	c.ResizeEdges(g.NumEdges() + n)
	copy(c.Self, g.Self)
	pos := int64(0)
	for x := n - 1; x >= 0; x-- {
		c.Start[x] = pos
		for e := g.End[x] - 1; e >= g.Start[x]; e-- {
			c.V[pos], c.W[pos] = g.V[e], g.W[e]
			pos++
		}
		c.End[x] = pos
		pos++ // gap
	}
	c.SetCounts(n, g.NumEdges())
	return c
}

// randomCompactBatch draws one delta batch against o's merged view:
// accumulating inserts on live edges, fresh inserts (patch-only edges owned
// by either endpoint, some into empty base buckets), deletes, deletes
// resurrected in the same batch, self-loop inserts and deletes, and now and
// then a row deleted down to empty.
func randomCompactBatch(r *par.RNG, o *Overlay, version uint64) *Delta {
	n := o.NumVertices()
	d := &Delta{Version: version}
	liveNbr := func(x int64) []int64 {
		var nbrs []int64
		o.ForNeighbors(x, func(v, _ int64) { nbrs = append(nbrs, v) })
		return nbrs
	}
	for k := 0; k < 24; k++ {
		x := r.Int63n(n)
		if r.Intn(2) == 0 {
			x = r.Int63n(4)
		}
		switch r.Intn(7) {
		case 0, 1:
			d.Insert(x, r.Int63n(n), r.Int63n(3)+1)
		case 2:
			if nbrs := liveNbr(x); len(nbrs) > 0 {
				d.Insert(x, nbrs[r.Intn(len(nbrs))], 1)
			}
		case 3:
			if nbrs := liveNbr(x); len(nbrs) > 0 {
				v := nbrs[r.Intn(len(nbrs))]
				d.Delete(x, v)
				if r.Intn(2) == 0 {
					d.Insert(v, x, 2)
				}
			}
		case 4:
			d.Delete(x, r.Int63n(n))
		case 5:
			if r.Intn(2) == 0 {
				d.Insert(x, x, 1)
			} else {
				d.Delete(x, x)
			}
		case 6:
			if r.Intn(4) == 0 {
				for _, v := range liveNbr(x) {
					d.Delete(x, v)
				}
			}
		}
	}
	return d
}

// requireSameEdges fails unless got holds want's vertices, self-loops and
// edge triples. got's buckets are sorted by V, so walking them in vertex
// order yields want's Build order whatever slots they sit in.
func requireSameEdges(t *testing.T, what string, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: |V|=%d |E|=%d, reference |V|=%d |E|=%d", what,
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	if !slices.Equal(got.Self, want.Self) {
		t.Fatalf("%s: Self = %v, reference %v", what, got.Self, want.Self)
	}
	if ge, we := got.Edges(), want.Edges(); !slices.Equal(ge, we) {
		t.Fatalf("%s: edges %v, reference %v", what, ge, we)
	}
}

// checkCompact compacts o and holds the result to the builder-fed
// reference: the same edges and self-loops and a valid graph after every
// compaction, and the reference slot for slot after a repack. It reports
// whether the compaction repacked.
func checkCompact(t *testing.T, what string, o *Overlay) (got *Graph, repacked bool) {
	t.Helper()
	want := referenceCompact(t, o)
	repacks := o.Stats().Repacks
	got, err := o.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	requireSameEdges(t, what, got, want)
	repacked = o.Stats().Repacks > repacks
	if repacked {
		requireSameArrays(t, what+" (repack)", got, want)
	}
	return got, repacked
}

// TestCompactMatchesBuilderReference checks Compact against the
// builder-fed reference across random delta chains, at several worker
// counts, over both a Build base and a contracted (unsorted, gapped) one:
// edge for edge after every fold, slot for slot after every repack (the
// first fold always repacks). Patches accumulate over one to three batches
// between folds, so tombstones get resurrected and rows emptied across
// batches too.
func TestCompactMatchesBuilderReference(t *testing.T) {
	for _, contracted := range []bool{false, true} {
		for _, p := range []int{1, 2, 4} {
			r := par.NewRNG(41)
			base := compactTestBase(r, 240, contracted)
			keep := base.Clone()
			o := NewOverlay(p, base)
			folds := 0
			for batch := 1; batch <= 40; batch++ {
				if err := o.ApplyDelta(randomCompactBatch(r, o, uint64(batch))); err != nil {
					t.Fatal(err)
				}
				if r.Intn(3) == 0 && batch < 40 {
					continue
				}
				what := fmt.Sprintf("p=%d contracted=%v batch %d", p, contracted, batch)
				if _, repacked := checkCompact(t, what, o); folds == 0 && !repacked {
					t.Fatalf("%s: the first fold patched the caller's base in place", what)
				}
				folds++
			}
			requireSameArrays(t, "caller's base after the chain", base, keep)
		}
	}
}

// TestCompactInPlaceSoak drives a long seeded chain through in-place
// compaction and requires it to reach every placement case while matching
// the reference after each fold: a patched bucket that shrank in its slot,
// one that outgrew its slot and moved, a repack after the first fold, a
// vertex whose self-loop changed with its bucket untouched, and a bucket
// emptied in place. Every few folds one batch grows hub buckets in bulk so
// the tail runs out.
func TestCompactInPlaceSoak(t *testing.T) {
	for _, p := range []int{1, 3} {
		r := par.NewRNG(uint64(90 + p))
		o := NewOverlay(p, compactTestBase(r, 240, false))
		var shrunk, moved, repacks, selfOnly, emptied int
		for batch := 1; batch <= 150; batch++ {
			d := randomCompactBatch(r, o, uint64(batch))
			if batch%25 == 0 {
				n := o.NumVertices()
				for k := 0; k < 60; k++ {
					d.Insert(r.Int63n(4), r.Int63n(n), 1)
				}
			}
			if err := o.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			before := o.Base().Clone()
			touched := map[int64]bool{}
			for _, up := range d.Updates {
				touched[up.U], touched[up.V] = true, true
			}
			got, repacked := checkCompact(t, fmt.Sprintf("p=%d batch %d", p, batch), o)
			if repacked {
				if batch > 1 {
					repacks++
				}
				continue
			}
			for x := range touched {
				ol, nl := before.End[x]-before.Start[x], got.End[x]-got.Start[x]
				switch {
				case got.Start[x] != before.Start[x] && nl > ol:
					moved++
				case nl == 0 && ol > 0:
					emptied++
				case nl < ol:
					shrunk++
				}
				sameBucket := nl == ol && slices.Equal(got.V[got.Start[x]:got.End[x]], before.V[before.Start[x]:before.End[x]]) &&
					slices.Equal(got.W[got.Start[x]:got.End[x]], before.W[before.Start[x]:before.End[x]])
				if sameBucket && got.Self[x] != before.Self[x] {
					selfOnly++
				}
			}
		}
		t.Logf("p=%d: %d shrunk in place, %d moved, %d repacks, %d self-loop-only, %d emptied",
			p, shrunk, moved, repacks, selfOnly, emptied)
		if shrunk == 0 || moved == 0 || repacks == 0 || selfOnly == 0 || emptied == 0 {
			t.Fatalf("p=%d: the soak missed a placement case", p)
		}
	}
}

// TestCompactLeavesUntouchedBucketsInPlace patches a large packed base
// twice, once with weight accumulating on a stored edge (its bucket keeps
// its slot) and once with a new edge (the owner's bucket outgrows its slot
// and moves), and requires every bucket the batch does not touch to keep
// its Start, End and edge range byte for byte.
func TestCompactLeavesUntouchedBucketsInPlace(t *testing.T) {
	r := par.NewRNG(5)
	n := int64(20000)
	var edges []Edge
	for i := 0; i < 100000; i++ {
		edges = append(edges, Edge{r.Int63n(n), r.Int63n(n), r.Int63n(5) + 1})
	}
	g := MustBuild(2, n, edges)
	o := NewOverlay(2, g)
	d := &Delta{Version: 1}
	d.Insert(0, 0, 1)
	if err := o.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Compact(); err != nil { // the first fold repacks
		t.Fatal(err)
	}
	b := o.Base()
	x := int64(0)
	for b.Start[x] == b.End[x] {
		x++
	}
	y := x + 2 // same parity: the smaller endpoint owns the edge
	for o.baseWeight(x, y) > 0 {
		y += 2
	}
	for step, up := range []Update{
		{Op: OpInsert, U: x, V: b.V[b.Start[x]], W: 3},
		{Op: OpInsert, U: x, V: y, W: 1},
	} {
		d := &Delta{Version: uint64(step + 2), Updates: []Update{up}}
		if err := o.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		before := o.Base().Clone()
		got, err := o.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if o.Stats().Repacks != 1 {
			t.Fatalf("step %d: compaction repacked (%d repacks)", step, o.Stats().Repacks)
		}
		if err := got.Validate(); err != nil {
			t.Fatal(err)
		}
		for v := int64(0); v < n; v++ {
			if v == up.U || v == up.V {
				continue
			}
			s, e := before.Start[v], before.End[v]
			if got.Start[v] != s || got.End[v] != e ||
				!slices.Equal(got.V[s:e], before.V[s:e]) ||
				!slices.Equal(got.W[s:e], before.W[s:e]) {
				t.Fatalf("step %d: untouched bucket %d moved or changed", step, v)
			}
		}
		if moved := got.Start[x] != before.Start[x]; moved != (step == 1) {
			t.Fatalf("step %d: bucket %d moved = %v", step, x, moved)
		}
	}
}

// TestCompactPatchedRowAheadOfFirstBucket covers a fill-pass corner the
// random chains rarely reach: patched rows ahead of the base's first bucket
// (which starts at edge 0) write edges there, so the untouched bucket after
// them must not be copied to edge 0 as well.
func TestCompactPatchedRowAheadOfFirstBucket(t *testing.T) {
	for _, p := range []int{1, 2} {
		o := NewOverlay(p, MustBuild(1, 8, []Edge{{3, 5, 1}, {4, 6, 2}}))
		d := &Delta{Version: 1}
		d.Insert(0, 2, 7) // owned by 0; 2's patch row merges to nothing
		if err := o.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		want := referenceCompact(t, o)
		got, err := o.Compact()
		if err != nil {
			t.Fatal(err)
		}
		requireSameArrays(t, fmt.Sprintf("p=%d", p), got, want)
	}
}

// TestOverlayCompactAloneAllocatesNothing pins the steady state of Compact
// by itself: once the first fold has repacked and the compaction scratch
// has grown, a serial in-place fold allocates nothing. The batches keep
// every bucket's length fixed (weight accumulates on stored edges, a stored
// edge is deleted and resurrected, self-loops come and go) and touch the
// same vertices each round, so every bucket fits its slot and no fold
// repacks.
func TestOverlayCompactAloneAllocatesNothing(t *testing.T) {
	r := par.NewRNG(17)
	n := int64(128)
	var edges []Edge
	for i := 0; i < 512; i++ {
		edges = append(edges, Edge{r.Int63n(n), r.Int63n(n), r.Int63n(5) + 1})
	}
	g := MustBuild(1, n, edges)
	o := NewOverlay(1, g)
	var picks [8][2]int64
	for k := range picks {
		e := r.Int63n(g.NumEdges())
		x := findOwner(g)
		for g.End[x] <= e {
			x++
		}
		picks[k] = [2]int64{x, g.V[e]}
	}
	apply := func() {
		d := &Delta{Version: o.Version() + 1}
		for k, uv := range picks {
			if k%2 == 0 {
				d.Insert(uv[0], uv[1], 1)
			} else {
				d.Delete(uv[0], uv[1])
				d.Insert(uv[1], uv[0], 2)
			}
			d.Insert(uv[0], uv[0], 1)
			d.Delete(uv[1], uv[1])
		}
		if err := o.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		apply()
		if _, err := o.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	repacks := o.Stats().Repacks
	var before, after runtime.MemStats
	var mallocs uint64
	for i := 0; i < 20; i++ {
		apply()
		runtime.ReadMemStats(&before)
		if _, err := o.Compact(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	if mallocs != 0 {
		t.Fatalf("steady-state Compact allocated %d times over 20 folds", mallocs)
	}
	if got := o.Stats().Repacks; got != repacks {
		t.Fatalf("%d of the 20 folds repacked, want all in place", got-repacks)
	}
}
