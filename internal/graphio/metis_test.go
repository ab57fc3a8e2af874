package graphio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/gen"
)

func TestReadMETISUnweighted(t *testing.T) {
	// Triangle, default format (no weights): fmt field omitted.
	in := `% a comment
3 3
2 3
1 3
1 2
`
	g, err := ReadMETIS(strings.NewReader(in), 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("|V|=%d |E|=%d", g.NumVertices(), g.NumEdges())
	}
	g.ForEachEdge(func(_ int64, _, _, w int64) {
		if w != 1 {
			t.Fatalf("weight %d", w)
		}
	})
}

func TestReadMETISEdgeWeights(t *testing.T) {
	in := "2 1 001\n2 7\n1 7\n"
	g, err := ReadMETIS(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.TotalWeight(1) != 7 {
		t.Fatalf("|E|=%d w=%d", g.NumEdges(), g.TotalWeight(1))
	}
}

func TestReadMETISVertexWeightsSkipped(t *testing.T) {
	// fmt=011: edge weights + 2 vertex weights per line (ncon=2).
	in := "2 1 011 2\n5 5 2 9\n1 1 1 9\n"
	g, err := ReadMETIS(strings.NewReader(in), 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.TotalWeight(1) != 9 {
		t.Fatalf("|E|=%d w=%d", g.NumEdges(), g.TotalWeight(1))
	}
}

func TestReadMETISErrors(t *testing.T) {
	for _, in := range []string{
		"",                    // no header
		"2\n",                 // short header
		"x 1\n1 2\n",          // bad n
		"2 x\n2\n1\n",         // bad m
		"2 1\n2\n",            // missing vertex line
		"2 1\n3\n1\n",         // neighbor out of range
		"2 1 001\n2\n1\n",     // missing weight
		"2 1 001\n2 0\n1 0\n", // zero weight
		"2 2\n2\n1\n",         // edge count mismatch
		"2 1 1 0 0 0\n2\n1\n", // header too long
		// ncon = MaxInt64 with vertex sizes set once wrapped the field index
		// negative and panicked.
		"2 1 110 9223372036854775807\n1 2\n1 1\n",
	} {
		if _, err := ReadMETIS(strings.NewReader(in), 1); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestMETISRoundTrip(t *testing.T) {
	g, _, err := gen.SBM(2, gen.SBMConfig{Blocks: []int64{15, 25}, PIn: 0.35, POut: 0.04, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMETIS(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	// METIS drops self-loops (there are none here), so graphs match fully.
	assertSameGraph(t, g, back)
}
