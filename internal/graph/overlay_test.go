package graph

import (
	"maps"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/par"
)

// overlayRef is the naive merged-view reference: undirected edge weights
// keyed by sorted endpoints plus per-vertex self-loops.
type overlayRef struct {
	n    int64
	w    map[[2]int64]int64
	self map[int64]int64
}

func newOverlayRef(g *Graph) *overlayRef {
	r := &overlayRef{n: g.NumVertices(), w: map[[2]int64]int64{}, self: map[int64]int64{}}
	g.ForEachEdge(func(_ int64, u, v, w int64) {
		r.w[edgeKey(u, v)] = w
	})
	for x := int64(0); x < g.NumVertices(); x++ {
		if g.Self[x] > 0 {
			r.self[x] = g.Self[x]
		}
	}
	return r
}

func edgeKey(u, v int64) [2]int64 {
	if u > v {
		u, v = v, u
	}
	return [2]int64{u, v}
}

func (r *overlayRef) apply(up Update) {
	if up.U == up.V {
		switch up.Op {
		case OpInsert:
			r.self[up.U] += up.W
		case OpDelete:
			delete(r.self, up.U)
		}
		return
	}
	k := edgeKey(up.U, up.V)
	switch up.Op {
	case OpInsert:
		r.w[k] += up.W
	case OpDelete:
		delete(r.w, k)
	}
}

// weighted returns x's weighted degree: twice its self-loop plus its edge
// weights.
func (r *overlayRef) weighted(x int64) int64 {
	d := 2 * r.self[x]
	for k, w := range r.w {
		if k[0] == x || k[1] == x {
			d += w
		}
	}
	return d
}

func (r *overlayRef) degree(x int64) int64 {
	var d int64
	for k := range r.w {
		if k[0] == x || k[1] == x {
			d++
		}
	}
	return d
}

// checkView asserts the overlay's merged view matches the reference model
// on every vertex: degree, self-loop, and the full neighbor multiset.
func checkView(t *testing.T, o *Overlay, ref *overlayRef) {
	t.Helper()
	if o.NumEdges() != int64(len(ref.w)) {
		t.Fatalf("NumEdges = %d, reference %d", o.NumEdges(), len(ref.w))
	}
	var total int64
	for _, w := range ref.w {
		total += w
	}
	for _, w := range ref.self {
		total += w
	}
	if got := o.TotalWeight(); got != total {
		t.Fatalf("TotalWeight = %d, reference %d", got, total)
	}
	wdeg := o.WeightedDegrees()
	for x := int64(0); x < ref.n; x++ {
		if got, want := o.Degree(x), ref.degree(x); got != want {
			t.Fatalf("Degree(%d) = %d, reference %d", x, got, want)
		}
		if got, want := wdeg[x], ref.weighted(x); got != want {
			t.Fatalf("WeightedDegrees[%d] = %d, reference %d", x, got, want)
		}
		if got, want := o.SelfLoop(x), ref.self[x]; got != want {
			t.Fatalf("SelfLoop(%d) = %d, reference %d", x, got, want)
		}
		seen := map[int64]int64{}
		o.ForNeighbors(x, func(v, w int64) {
			if _, dup := seen[v]; dup {
				t.Fatalf("ForNeighbors(%d) emitted neighbor %d twice", x, v)
			}
			seen[v] = w
		})
		for v, w := range seen {
			if ref.w[edgeKey(x, v)] != w {
				t.Fatalf("ForNeighbors(%d): edge {%d,%d} weight %d, reference %d",
					x, x, v, w, ref.w[edgeKey(x, v)])
			}
		}
		if int64(len(seen)) != ref.degree(x) {
			t.Fatalf("ForNeighbors(%d) emitted %d neighbors, reference %d", x, len(seen), ref.degree(x))
		}
	}
}

func testBase(t *testing.T) *Graph {
	t.Helper()
	// Two triangles joined by a bridge, plus a self-loop and an isolate.
	g := MustBuild(2, 8, []Edge{
		{0, 1, 2}, {1, 2, 1}, {0, 2, 3},
		{3, 4, 1}, {4, 5, 2}, {3, 5, 1},
		{2, 3, 1},
		{6, 6, 4},
	})
	return g
}

func TestOverlayInsertAccumulatesDuplicate(t *testing.T) {
	g := testBase(t)
	o := NewOverlay(1, g)
	d := &Delta{Version: 1}
	d.Insert(0, 1, 5) // existing base edge {0,1} w=2
	d.Insert(1, 0, 1) // reversed orientation, same edge
	if err := o.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	var got int64 = -1
	o.ForNeighbors(0, func(v, w int64) {
		if v == 1 {
			got = w
		}
	})
	if got != 8 {
		t.Fatalf("edge {0,1} weight = %d, want 2+5+1 = 8", got)
	}
	if o.NumEdges() != g.NumEdges() {
		t.Fatalf("NumEdges = %d, want unchanged %d (accumulation adds no edge)", o.NumEdges(), g.NumEdges())
	}
	if st := o.Stats(); st.Inserts != 2 || st.Accumulated != 2 {
		t.Fatalf("stats = %+v, want 2 inserts both accumulated", st)
	}
}

func TestOverlayDeleteMissingEdgeIsNoop(t *testing.T) {
	g := testBase(t)
	o := NewOverlay(1, g)
	d := &Delta{Version: 1}
	d.Delete(0, 7) // never existed
	d.Delete(0, 1) // exists
	d.Delete(0, 1) // already deleted above: second delete is a no-op
	if err := o.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if st := o.Stats(); st.Deletes != 1 || st.NoopDeletes != 2 {
		t.Fatalf("stats = %+v, want 1 delete and 2 no-op deletes", st)
	}
	if o.NumEdges() != g.NumEdges()-1 {
		t.Fatalf("NumEdges = %d, want %d", o.NumEdges(), g.NumEdges()-1)
	}
	if o.Degree(0) != 1 {
		t.Fatalf("Degree(0) = %d, want 1 after deleting {0,1}", o.Degree(0))
	}
}

func TestOverlayResurrectAfterDelete(t *testing.T) {
	g := testBase(t)
	o := NewOverlay(1, g)
	d := &Delta{Version: 1}
	d.Delete(0, 1)
	d.Insert(0, 1, 7) // resurrect: weight starts over, no base carryover
	if err := o.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	var got int64 = -1
	o.ForNeighbors(1, func(v, w int64) {
		if v == 0 {
			got = w
		}
	})
	if got != 7 {
		t.Fatalf("resurrected edge {0,1} weight = %d, want 7", got)
	}
	if o.NumEdges() != g.NumEdges() {
		t.Fatalf("NumEdges = %d, want %d", o.NumEdges(), g.NumEdges())
	}
}

func TestOverlaySelfLoops(t *testing.T) {
	g := testBase(t)
	o := NewOverlay(1, g)
	d := &Delta{Version: 1}
	d.Insert(6, 6, 3) // accumulate onto base self-loop of 4
	d.Insert(0, 0, 2) // fresh self-loop
	d.Delete(5, 5)    // absent self-loop: no-op
	if err := o.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if got := o.SelfLoop(6); got != 7 {
		t.Fatalf("SelfLoop(6) = %d, want 7", got)
	}
	if got := o.SelfLoop(0); got != 2 {
		t.Fatalf("SelfLoop(0) = %d, want 2", got)
	}
	d2 := &Delta{Version: 2}
	d2.Delete(6, 6)
	if err := o.ApplyDelta(d2); err != nil {
		t.Fatal(err)
	}
	if got := o.SelfLoop(6); got != 0 {
		t.Fatalf("SelfLoop(6) = %d after delete, want 0", got)
	}
	cg, err := o.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cg.Self[0] != 2 || cg.Self[6] != 0 {
		t.Fatalf("compacted Self = %v, want Self[0]=2 Self[6]=0", cg.Self)
	}
}

func TestOverlayCompactIdempotent(t *testing.T) {
	g := testBase(t)
	o := NewOverlay(1, g)
	d := &Delta{Version: 1}
	d.Insert(0, 7, 1)
	d.Delete(3, 4)
	if err := o.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	first, err := o.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.Pending() != 0 {
		t.Fatalf("pending = %d after compact, want 0", o.Pending())
	}
	second, err := o.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatal("Compact(); Compact() rebuilt the base despite no pending updates")
	}
	if st := o.Stats(); st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1 (second call is a no-op)", st.Compactions)
	}
	// The caller's original base is never written.
	if g.NumEdges() != 7 {
		t.Fatalf("original base mutated: NumEdges = %d", g.NumEdges())
	}
}

func TestOverlayVersionAndValidate(t *testing.T) {
	g := testBase(t)
	o := NewOverlay(1, g)
	bad := &Delta{Version: 3}
	bad.Insert(0, 99, 1)
	if err := o.ApplyDelta(bad); err == nil {
		t.Fatal("ApplyDelta accepted an out-of-range endpoint")
	}
	if o.Version() != 0 || o.Pending() != 0 {
		t.Fatalf("rejected batch advanced state: version=%d pending=%d", o.Version(), o.Pending())
	}
	ok := &Delta{Version: 3}
	ok.Insert(0, 7, 1)
	if err := o.ApplyDelta(ok); err != nil {
		t.Fatal(err)
	}
	if o.Version() != 3 {
		t.Fatalf("version = %d, want 3", o.Version())
	}
	zeroW := &Delta{Version: 4}
	zeroW.Insert(0, 1, 0)
	if err := o.ApplyDelta(zeroW); err == nil {
		t.Fatal("ApplyDelta accepted a zero-weight insert")
	}
}

func TestOverlayRandomAgainstReference(t *testing.T) {
	r := par.NewRNG(99)
	for trial := 0; trial < 10; trial++ {
		n := int64(8 + r.Intn(40))
		var edges []Edge
		for i := 0; i < int(n)*3; i++ {
			edges = append(edges, Edge{r.Int63n(n), r.Int63n(n), r.Int63n(5) + 1})
		}
		g := MustBuild(2, n, edges)
		o := NewOverlay(2, g)
		ref := newOverlayRef(g)
		for batch := 0; batch < 6; batch++ {
			d := &Delta{Version: uint64(batch + 1)}
			for k := 0; k < 20; k++ {
				u, v := r.Int63n(n), r.Int63n(n)
				if r.Intn(3) == 0 {
					d.Delete(u, v)
				} else {
					d.Insert(u, v, r.Int63n(4)+1)
				}
			}
			if err := o.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			for _, up := range d.Updates {
				ref.apply(up)
			}
			checkView(t, o, ref)
			if batch == 3 {
				cg, err := o.Compact()
				if err != nil {
					t.Fatal(err)
				}
				if err := cg.Validate(); err != nil {
					t.Fatalf("trial %d: compacted graph invalid: %v", trial, err)
				}
				checkView(t, o, ref) // view unchanged across compaction
			}
		}
		// Final compaction must reproduce the reference edge set exactly.
		cg, err := o.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if err := cg.Validate(); err != nil {
			t.Fatal(err)
		}
		if cg.NumEdges() != int64(len(ref.w)) {
			t.Fatalf("trial %d: compacted %d edges, reference %d", trial, cg.NumEdges(), len(ref.w))
		}
		cg.ForEachEdge(func(_ int64, u, v, w int64) {
			if ref.w[edgeKey(u, v)] != w {
				t.Fatalf("trial %d: edge {%d,%d} weight %d, reference %d", trial, u, v, w, ref.w[edgeKey(u, v)])
			}
		})
		for x := int64(0); x < n; x++ {
			if cg.Self[x] != ref.self[x] {
				t.Fatalf("trial %d: Self[%d] = %d, reference %d", trial, x, cg.Self[x], ref.self[x])
			}
		}
	}
}

func TestOverlayShouldCompactPolicy(t *testing.T) {
	g := testBase(t)
	o := NewOverlay(1, g)
	if o.ShouldCompact() {
		t.Fatal("fresh overlay wants compaction")
	}
	d := &Delta{Version: 1}
	d.Insert(0, 7, 1)
	d.Insert(1, 7, 1)
	if err := o.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	// 2 pending >= 25% of 7 base edges triggers the fractional bound.
	if !o.ShouldCompact() {
		t.Fatal("2 pending on a 7-edge base should trigger the 25% bound")
	}
	if _, err := o.Compact(); err != nil {
		t.Fatal(err)
	}
	if o.ShouldCompact() {
		t.Fatal("freshly compacted overlay wants compaction")
	}
}

// TestOverlayConcurrentReadersAndWriter drives a mutator applying delta
// batches and periodically compacting while reader goroutines sweep the
// merged view — the CI race job's overlay coverage.
func TestOverlayConcurrentReadersAndWriter(t *testing.T) {
	r := par.NewRNG(7)
	n := int64(64)
	var edges []Edge
	for i := 0; i < 256; i++ {
		edges = append(edges, Edge{r.Int63n(n), r.Int63n(n), r.Int63n(5) + 1})
	}
	g := MustBuild(2, n, edges)
	o := NewOverlay(2, g)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for reader := 0; reader < 3; reader++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rr := par.NewRNG(seed)
			for {
				select {
				case <-stop:
					return
				default:
				}
				x := rr.Int63n(n)
				var sum int64
				o.ForNeighbors(x, func(v, w int64) { sum += w })
				_ = o.Degree(x)
				_ = o.SelfLoop(x)
				_ = o.NumEdges()
				_ = sum
			}
		}(uint64(100 + reader))
	}
	for batch := 0; batch < 40; batch++ {
		d := &Delta{Version: uint64(batch + 1)}
		for k := 0; k < 16; k++ {
			u, v := r.Int63n(n), r.Int63n(n)
			if r.Intn(4) == 0 {
				d.Delete(u, v)
			} else {
				d.Insert(u, v, r.Int63n(3)+1)
			}
		}
		if err := o.ApplyDelta(d); err != nil {
			t.Error(err)
			break
		}
		if o.ShouldCompact() {
			if _, err := o.Compact(); err != nil {
				t.Error(err)
				break
			}
		}
	}
	close(stop)
	wg.Wait()
	cg, err := o.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOverlaySteadyStateCompactAllocs(t *testing.T) {
	r := par.NewRNG(11)
	n := int64(128)
	var edges []Edge
	for i := 0; i < 512; i++ {
		edges = append(edges, Edge{r.Int63n(n), r.Int63n(n), r.Int63n(5) + 1})
	}
	g := MustBuild(1, n, edges)
	o := NewOverlay(1, g)
	churn := func() {
		d := &Delta{Version: o.Version() + 1}
		for k := 0; k < 8; k++ {
			d.Insert(r.Int63n(n), r.Int63n(n), 1)
			d.Delete(r.Int63n(n), r.Int63n(n))
		}
		if err := o.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up past the first fold's repack and let the patch-row free lists
	// and the compaction scratch reach capacity.
	for i := 0; i < 10; i++ {
		churn()
	}
	allocs := testing.AllocsPerRun(20, churn)
	// The apply path touches two maps and the delta slice; the compact path
	// must be allocation-free. A small constant budget keeps this from
	// regressing into O(E) rebuild allocations.
	if allocs > 24 {
		t.Fatalf("steady-state apply+compact allocated %.1f times per run", allocs)
	}
}

// mergedView snapshots o's merged view: every live edge weight by
// (vertex, neighbor) and every self-loop under (x, x).
func mergedView(o *Overlay) map[[2]int64]int64 {
	m := map[[2]int64]int64{}
	for x := int64(0); x < o.NumVertices(); x++ {
		m[[2]int64{x, x}] = o.SelfLoop(x)
		o.ForNeighbors(x, func(v, w int64) { m[[2]int64{x, v}] = w })
	}
	return m
}

// TestOverlayRejectsWeightOverflow checks that a batch whose insert weights
// would overflow the merged total weight is rejected whole: two inserts of
// MaxInt64 on one edge used to be accepted and fold into a negative edge
// weight. The rejected batch must leave the edge count, the version, the
// merged view and the weight figures as they were, and a batch that stays
// within the bound must still apply.
func TestOverlayRejectsWeightOverflow(t *testing.T) {
	g := testBase(t)
	o := NewOverlay(1, g)
	edges, version, view := o.NumEdges(), o.Version(), mergedView(o)
	total, deg := o.TotalWeight(), slices.Clone(o.WeightedDegrees())
	for _, d := range []*Delta{
		{Version: 1, Updates: []Update{{Op: OpInsert, U: 0, V: 7, W: math.MaxInt64}, {Op: OpInsert, U: 0, V: 7, W: math.MaxInt64}}},
		{Version: 1, Updates: []Update{{Op: OpInsert, U: 0, V: 1, W: 1}, {Op: OpInsert, U: 6, V: 6, W: math.MaxInt64 / 2}}},
	} {
		if err := o.ApplyDelta(d); err == nil {
			t.Fatalf("ApplyDelta accepted %v", d.Updates)
		}
		if o.NumEdges() != edges || o.Version() != version || !maps.Equal(mergedView(o), view) ||
			o.TotalWeight() != total || !slices.Equal(o.WeightedDegrees(), deg) {
			t.Fatalf("rejected batch %v changed the overlay", d.Updates)
		}
	}
	cg, err := o.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
	ok := &Delta{Version: 2}
	ok.Insert(0, 7, math.MaxInt64/2-total)
	if err := o.ApplyDelta(ok); err != nil {
		t.Fatalf("insert up to the bound rejected: %v", err)
	}
	if cg, err = o.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// parallelApplyBatches is a churn stream large enough for four apply
// workers: random inserts and deletes on a small vertex set, each batch
// also inserting, deleting and re-inserting one edge and churning
// self-loops (accumulate, delete, delete again, re-insert).
func parallelApplyBatches(r *par.RNG, n int64) []*Delta {
	var out []*Delta
	for b := 0; b < 6; b++ {
		d := &Delta{Version: uint64(b + 1)}
		u, v := r.Int63n(n), r.Int63n(n)
		for len(d.Updates) < 4*applyGrain+100 {
			switch r.Intn(8) {
			case 0:
				d.Insert(u, v, 2)
				d.Delete(v, u)
				d.Insert(u, v, 1)
			case 1:
				x := r.Int63n(n)
				d.Insert(x, x, 1)
				d.Delete(x, x)
				d.Delete(x, x)
				d.Insert(x, x, 3)
			case 2, 3:
				d.Delete(r.Int63n(n), r.Int63n(n))
			default:
				d.Insert(r.Int63n(n), r.Int63n(n), r.Int63n(3)+1)
			}
		}
		out = append(out, d)
	}
	return out
}

// TestOverlayParallelApplyDeterministic applies the same batches at 1, 2
// and 4 workers and requires identical counters, edge counts, merged views,
// weighted degrees and total weights after every batch, and identical
// compacted graphs after every second batch.
func TestOverlayParallelApplyDeterministic(t *testing.T) {
	r := par.NewRNG(23)
	n := int64(300)
	var edges []Edge
	for i := 0; i < 1200; i++ {
		edges = append(edges, Edge{r.Int63n(n), r.Int63n(n), r.Int63n(5) + 1})
	}
	g := MustBuild(1, n, edges)
	batches := parallelApplyBatches(r, n)
	type state struct {
		stats OverlayStats
		edges int64
		view  map[[2]int64]int64
		deg   []int64
		total int64
		graph *Graph
	}
	var ref []state
	for _, p := range []int{1, 2, 4} {
		o := NewOverlay(p, g)
		for i, d := range batches {
			if err := o.ApplyDelta(d); err != nil {
				t.Fatal(err)
			}
			st := state{o.Stats(), o.NumEdges(), mergedView(o), slices.Clone(o.WeightedDegrees()), o.TotalWeight(), nil}
			if i%2 == 1 {
				cg, err := o.Compact()
				if err != nil {
					t.Fatal(err)
				}
				st.graph = cg.Clone()
				if !slices.Equal(cg.WeightedDegrees(1), st.deg) || cg.TotalWeight(1) != st.total {
					t.Fatalf("p=%d batch %d: tracked weighted degrees or total weight differ from the compacted graph's", p, i)
				}
			}
			if p == 1 {
				ref = append(ref, st)
				continue
			}
			want := ref[i]
			if st.stats != want.stats || st.edges != want.edges || st.total != want.total {
				t.Fatalf("p=%d batch %d: stats %+v, %d edges, total %d; serial %+v, %d, %d",
					p, i, st.stats, st.edges, st.total, want.stats, want.edges, want.total)
			}
			if !maps.Equal(st.view, want.view) || !slices.Equal(st.deg, want.deg) {
				t.Fatalf("p=%d batch %d: merged view or weighted degrees differ from the serial apply", p, i)
			}
			if st.graph != nil {
				requireSameArrays(t, "compacted graph", st.graph, want.graph)
			}
		}
	}
}
