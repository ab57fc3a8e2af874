package graph

import (
	"testing"

	"repro/internal/par"
)

func TestMemoryFootprintMatchesPaperFormula(t *testing.T) {
	// A freshly built graph occupies exactly the paper's 3|V| + 3|E| words
	// (§IV-A) less one implied owner word per edge, plus scalars.
	r := par.NewRNG(3)
	for trial := 0; trial < 5; trial++ {
		n := int64(20 + r.Intn(200))
		var edges []Edge
		for i := 0; i < int(n)*3; i++ {
			edges = append(edges, Edge{r.Int63n(n), r.Int63n(n), 1})
		}
		g := MustBuild(2, n, edges)
		f := g.MemoryFootprint()
		if f.EdgeWords != 2*g.NumEdges() {
			t.Fatalf("edge words %d, want 2|E| = %d", f.EdgeWords, 2*g.NumEdges())
		}
		if f.VertexWords != 3*g.NumVertices() {
			t.Fatalf("vertex words %d, want 3|V| = %d", f.VertexWords, 3*g.NumVertices())
		}
		if f.TotalWords() != g.PaperFormulaWords()-g.NumEdges()+f.ScalarWords {
			t.Fatalf("total %d, formula %d - |E| %d + %d scalars",
				f.TotalWords(), g.PaperFormulaWords(), g.NumEdges(), f.ScalarWords)
		}
		if f.Bytes() != 8*f.TotalWords() {
			t.Fatal("bytes accounting wrong")
		}
	}
}

func TestWorkspaceFormulas(t *testing.T) {
	g := MustBuild(1, 10, []Edge{{0, 1, 1}, {2, 3, 1}, {4, 5, 1}})
	words, locks := MatchingWorkspaceWords(g)
	if words != 3+4*10 || locks != 10 {
		t.Fatalf("matching workspace = %d/%d, want 43/10", words, locks)
	}
	if got := ContractionWorkspaceWords(g); got != 10+1+2*3 {
		t.Fatalf("contraction workspace = %d, want 17", got)
	}
}
