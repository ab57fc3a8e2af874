package sparse

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

func mustNew(t *testing.T, p int, rows, cols int64, ts []Triple) *Matrix {
	t.Helper()
	m, err := New(p, rows, cols, ts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewAccumulatesAndSorts(t *testing.T) {
	m := mustNew(t, 2, 3, 4, []Triple{
		{0, 2, 1}, {0, 1, 2}, {0, 2, 3}, // duplicate (0,2)
		{2, 0, 5},
	})
	if m.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", m.NNZ())
	}
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 2 || vals[0] != 2 || vals[1] != 4 {
		t.Fatalf("row 0 = %v %v", cols, vals)
	}
	if c, _ := m.Row(1); len(c) != 0 {
		t.Fatal("row 1 should be empty")
	}
	if m.At(2, 0) != 5 || m.At(2, 3) != 0 || m.At(0, 2) != 4 {
		t.Fatal("At lookups wrong")
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	for _, ts := range [][]Triple{
		{{3, 0, 1}},
		{{0, 4, 1}},
		{{-1, 0, 1}},
	} {
		if _, err := New(1, 3, 4, ts); err == nil {
			t.Fatalf("accepted %v", ts)
		}
	}
}

func TestTranspose(t *testing.T) {
	m := mustNew(t, 2, 3, 4, []Triple{{0, 1, 2}, {0, 3, 7}, {1, 1, 5}, {2, 0, 1}})
	tr := Transpose(2, m)
	if tr.Rows != 4 || tr.Cols != 3 {
		t.Fatalf("shape %dx%d", tr.Rows, tr.Cols)
	}
	for r := int64(0); r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			if tr.At(c, r) != vals[i] {
				t.Fatalf("transpose(%d,%d) = %d, want %d", c, r, tr.At(c, r), vals[i])
			}
		}
	}
	if tr.NNZ() != m.NNZ() {
		t.Fatalf("NNZ changed: %d vs %d", tr.NNZ(), m.NNZ())
	}
	// Rows sorted.
	for r := int64(0); r < tr.Rows; r++ {
		cols, _ := tr.Row(r)
		for i := 1; i < len(cols); i++ {
			if cols[i-1] >= cols[i] {
				t.Fatalf("transpose row %d unsorted: %v", r, cols)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(raw []uint16) bool {
		var ts []Triple
		for i := 0; i+2 < len(raw); i += 3 {
			ts = append(ts, Triple{int64(raw[i] % 15), int64(raw[i+1] % 20), int64(raw[i+2]%9) + 1})
		}
		m, err := New(2, 15, 20, ts)
		if err != nil {
			return false
		}
		tt := Transpose(1, Transpose(2, m))
		if tt.Rows != m.Rows || tt.Cols != m.Cols || tt.NNZ() != m.NNZ() {
			return false
		}
		for i := range m.ColIdx {
			if m.ColIdx[i] != tt.ColIdx[i] || m.Val[i] != tt.Val[i] {
				return false
			}
		}
		for i := range m.RowPtr {
			if m.RowPtr[i] != tt.RowPtr[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// denseMul is the trivially correct reference.
func denseMul(a, b *Matrix) [][]int64 {
	out := make([][]int64, a.Rows)
	for r := range out {
		out[r] = make([]int64, b.Cols)
	}
	for r := int64(0); r < a.Rows; r++ {
		cols, vals := a.Row(r)
		for i, k := range cols {
			bcols, bvals := b.Row(k)
			for j, c := range bcols {
				out[r][c] += vals[i] * bvals[j]
			}
		}
	}
	return out
}

func TestMulMatchesDenseReference(t *testing.T) {
	r := par.NewRNG(3)
	for trial := 0; trial < 20; trial++ {
		var ta, tb []Triple
		for i := 0; i < 60; i++ {
			ta = append(ta, Triple{r.Int63n(8), r.Int63n(10), r.Int63n(5) + 1})
			tb = append(tb, Triple{r.Int63n(10), r.Int63n(7), r.Int63n(5) + 1})
		}
		a := mustNew(t, 2, 8, 10, ta)
		b := mustNew(t, 2, 10, 7, tb)
		got, err := Mul(3, a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := denseMul(a, b)
		for rr := int64(0); rr < 8; rr++ {
			for c := int64(0); c < 7; c++ {
				if got.At(rr, c) != want[rr][c] {
					t.Fatalf("trial %d: (%d,%d) = %d, want %d", trial, rr, c, got.At(rr, c), want[rr][c])
				}
			}
		}
	}
}

func TestMulDimensionMismatch(t *testing.T) {
	a := mustNew(t, 1, 2, 3, nil)
	b := mustNew(t, 1, 4, 2, nil)
	if _, err := Mul(1, a, b); err == nil {
		t.Fatal("accepted mismatched dimensions")
	}
}

func TestMulVec(t *testing.T) {
	m := mustNew(t, 2, 3, 3, []Triple{{0, 0, 1}, {0, 2, 2}, {1, 1, 3}, {2, 0, 4}})
	y, err := MulVec(2, m, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{7, 6, 4}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
	if _, err := MulVec(1, m, []int64{1}); err == nil {
		t.Fatal("accepted short vector")
	}
}

func TestGraphRoundTrip(t *testing.T) {
	g, _, err := gen.SBM(2, gen.SBMConfig{Blocks: []int64{20, 20}, PIn: 0.4, POut: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	g.Self[3] = 4
	a, err := FromGraph(2, g)
	if err != nil {
		t.Fatal(err)
	}
	// Degree via SpMV against the graph's own accounting: A·1 = weighted
	// degrees (diagonal already carries 2·self).
	ones := make([]int64, g.NumVertices())
	for i := range ones {
		ones[i] = 1
	}
	deg, err := MulVec(2, a, ones)
	if err != nil {
		t.Fatal(err)
	}
	want := g.WeightedDegrees(2)
	for i := range want {
		if deg[i] != want[i] {
			t.Fatalf("A·1 [%d] = %d, want %d", i, deg[i], want[i])
		}
	}
	back, err := ToGraph(2, a)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if back.TotalWeight(1) != g.TotalWeight(1) || back.NumEdges() != g.NumEdges() {
		t.Fatal("graph changed in matrix round trip")
	}
	if back.Self[3] != 4 {
		t.Fatalf("self-loop lost: %d", back.Self[3])
	}
}

func TestToGraphRejectsBadMatrices(t *testing.T) {
	if _, err := ToGraph(1, mustNew(t, 1, 2, 3, nil)); err == nil {
		t.Fatal("accepted non-square")
	}
	asym := mustNew(t, 1, 2, 2, []Triple{{0, 1, 5}})
	if _, err := ToGraph(1, asym); err == nil {
		t.Fatal("accepted asymmetric")
	}
	oddDiag := mustNew(t, 1, 2, 2, []Triple{{0, 0, 3}})
	if _, err := ToGraph(1, oddDiag); err == nil {
		t.Fatal("accepted odd diagonal")
	}
}

func TestIndicator(t *testing.T) {
	s, err := Indicator(2, []int64{0, 1, 0, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 4 || s.Cols != 3 || s.NNZ() != 4 {
		t.Fatalf("shape %dx%d nnz %d", s.Rows, s.Cols, s.NNZ())
	}
	for v, c := range []int64{0, 1, 0, 2} {
		if s.At(int64(v), c) != 1 {
			t.Fatalf("S[%d][%d] != 1", v, c)
		}
	}
	if _, err := Indicator(1, []int64{0, 5}, 3); err == nil {
		t.Fatal("accepted out-of-range community")
	}
}

func TestContractAlgebraicEqualsBucketKernel(t *testing.T) {
	r := par.NewRNG(5)
	for trial := 0; trial < 6; trial++ {
		n := int64(20 + r.Intn(60))
		var edges []graph.Edge
		for i := 0; i < int(n)*3; i++ {
			edges = append(edges, graph.Edge{U: r.Int63n(n), V: r.Int63n(n), W: r.Int63n(4) + 1})
		}
		g := graph.MustBuild(2, n, edges)
		k := int64(3 + r.Intn(5))
		comm := make([]int64, n)
		for v := range comm {
			comm[v] = r.Int63n(k)
		}
		direct := contract.ByMapping(exec.Background(2), g, comm, k, contract.Contiguous)
		algebraic, err := ContractAlgebraic(2, g, comm, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := algebraic.Validate(); err != nil {
			t.Fatal(err)
		}
		if direct.NumEdges() != algebraic.NumEdges() ||
			direct.TotalWeight(1) != algebraic.TotalWeight(1) {
			t.Fatalf("trial %d: shape/weight differ", trial)
		}
		de, ae := direct.Edges(), algebraic.Edges()
		sortEdges(de)
		sortEdges(ae)
		for i := range de {
			if de[i] != ae[i] {
				t.Fatalf("trial %d: edge %d: %v vs %v", trial, i, de[i], ae[i])
			}
		}
		for c := int64(0); c < k; c++ {
			if direct.Self[c] != algebraic.Self[c] {
				t.Fatalf("trial %d: Self[%d] %d vs %d", trial, c, direct.Self[c], algebraic.Self[c])
			}
		}
	}
}

func sortEdges(es []graph.Edge) {
	par.Sort(1, es, func(a, b graph.Edge) bool {
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
}

func TestAlgebraicContractionInsideEngineStep(t *testing.T) {
	// Full cross-check against a real engine phase: run one phase with the
	// direct kernel, then verify SᵀAS over the same mapping reproduces the
	// phase-1 community graph.
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(500, 11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.DetectContext(context.Background(), g, core.Options{Threads: 2, MaxPhases: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 1 {
		t.Fatalf("expected exactly one level, got %d", len(res.Levels))
	}
	mapping := res.Levels[0]
	k := res.NumCommunities
	algebraic, err := ContractAlgebraic(2, g, mapping, k)
	if err != nil {
		t.Fatal(err)
	}
	direct := contract.ByMapping(exec.Background(2), g, mapping, k, contract.Contiguous)
	if algebraic.TotalWeight(1) != direct.TotalWeight(1) ||
		algebraic.NumEdges() != direct.NumEdges() {
		t.Fatal("algebraic and direct phase graphs differ")
	}
}

func TestMulAssociativity(t *testing.T) {
	// (A·B)·C == A·(B·C) exactly (integer arithmetic, no rounding).
	r := par.NewRNG(14)
	for trial := 0; trial < 10; trial++ {
		mk := func(rows, cols int64, nnz int) *Matrix {
			var ts []Triple
			for i := 0; i < nnz; i++ {
				ts = append(ts, Triple{r.Int63n(rows), r.Int63n(cols), r.Int63n(4) + 1})
			}
			m, err := New(2, rows, cols, ts)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		a := mk(6, 8, 20)
		b := mk(8, 5, 20)
		c := mk(5, 7, 20)
		ab, err := Mul(2, a, b)
		if err != nil {
			t.Fatal(err)
		}
		left, err := Mul(2, ab, c)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := Mul(2, b, c)
		if err != nil {
			t.Fatal(err)
		}
		right, err := Mul(2, a, bc)
		if err != nil {
			t.Fatal(err)
		}
		for rr := int64(0); rr < 6; rr++ {
			for cc := int64(0); cc < 7; cc++ {
				if left.At(rr, cc) != right.At(rr, cc) {
					t.Fatalf("trial %d: (%d,%d): %d != %d", trial, rr, cc, left.At(rr, cc), right.At(rr, cc))
				}
			}
		}
	}
}

func TestTransposeOfProduct(t *testing.T) {
	// (A·B)ᵀ == Bᵀ·Aᵀ.
	r := par.NewRNG(15)
	var ta, tb []Triple
	for i := 0; i < 30; i++ {
		ta = append(ta, Triple{r.Int63n(5), r.Int63n(9), r.Int63n(3) + 1})
		tb = append(tb, Triple{r.Int63n(9), r.Int63n(4), r.Int63n(3) + 1})
	}
	a := mustNew(t, 1, 5, 9, ta)
	b := mustNew(t, 1, 9, 4, tb)
	ab, err := Mul(1, a, b)
	if err != nil {
		t.Fatal(err)
	}
	left := Transpose(1, ab)
	right, err := Mul(1, Transpose(1, b), Transpose(1, a))
	if err != nil {
		t.Fatal(err)
	}
	for rr := int64(0); rr < 4; rr++ {
		for cc := int64(0); cc < 5; cc++ {
			if left.At(rr, cc) != right.At(rr, cc) {
				t.Fatalf("(%d,%d): %d != %d", rr, cc, left.At(rr, cc), right.At(rr, cc))
			}
		}
	}
}
