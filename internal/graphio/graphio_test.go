package graphio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/par"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# a comment
% another comment

0 1
1 2 5
  3	4  2
`
	g, err := ReadEdgeList(strings.NewReader(in), 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5 || g.NumEdges() != 3 {
		t.Fatalf("|V|=%d |E|=%d, want 5/3", g.NumVertices(), g.NumEdges())
	}
	if g.TotalWeight(1) != 1+5+2 {
		t.Fatalf("weight %d, want 8", g.TotalWeight(1))
	}
}

func TestReadEdgeListMinVertices(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1\n"), 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 {
		t.Fatalf("|V| = %d, want 10", g.NumVertices())
	}
}

func TestReadEdgeListSelfLoopsAndDuplicates(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 1 2\n1 0 3\n2 2 7\n"), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.Self[2] != 7 {
		t.Fatalf("|E|=%d Self[2]=%d", g.NumEdges(), g.Self[2])
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, in := range []string{
		"0\n",                      // too few fields
		"0 1 2 3\n",                // too many fields
		"a 1\n",                    // bad source
		"0 b\n",                    // bad target
		"0 1 x\n",                  // bad weight
		"-1 2\n",                   // negative id
		"0 1 0\n",                  // zero weight
		"0 1 -5\n",                 // negative weight
		"99999999999999999999 1\n", // overflow
	} {
		if _, err := ReadEdgeList(strings.NewReader(in), 1, 0); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, _, err := gen.SBM(2, gen.SBMConfig{Blocks: []int64{20, 30}, PIn: 0.3, POut: 0.05, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g.Self[5] = 9
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf, 2, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, back)
}

func TestBinaryRoundTrip(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(1000, 5))
	if err != nil {
		t.Fatal(err)
	}
	g.Self[0] = 3
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, back)
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("not a graph at all, sorry")), 1); err == nil {
		t.Fatal("accepted garbage")
	}
	if _, err := ReadBinary(bytes.NewReader(nil), 1); err == nil {
		t.Fatal("accepted empty input")
	}
	// Right magic, truncated body.
	var buf bytes.Buffer
	g := gen.Ring(10)
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-9]
	if _, err := ReadBinary(bytes.NewReader(trunc), 1); err == nil {
		t.Fatal("accepted truncated input")
	}
}

func TestBinaryHostileHeaderCounts(t *testing.T) {
	// A header claiming in-range but enormous counts over an empty body must
	// fail on the short stream without allocating for the claimed sizes
	// (readInt64s clamps its speculative allocation).
	var buf bytes.Buffer
	hdr := []uint64{binaryMagic, 1 << 30, 1 << 40}
	if err := binary.Write(&buf, binary.LittleEndian, hdr); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes()), 1); err == nil {
		t.Fatal("accepted a hostile header with no body")
	}
}

// binaryFile encodes a binary-format graph from raw self-loop weights and
// (u, v, w) triples, so a test can write what WriteBinary never would.
func binaryFile(t *testing.T, self []int64, triples ...int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, part := range []any{[]uint64{binaryMagic, uint64(len(self)), uint64(len(triples) / 3)}, self, triples} {
		if err := binary.Write(&buf, binary.LittleEndian, part); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestReadersRejectWeightOverflow feeds each reader weights whose sum
// passes graph.MaxTotalWeight. The edge-list case used to load as a graph
// with Self[2] = -2 and total weight -4 that Validate rejected.
func TestReadersRejectWeightOverflow(t *testing.T) {
	const big, bound = math.MaxInt64, graph.MaxTotalWeight
	edgeList := func(in string) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) { return ReadEdgeList(strings.NewReader(in), 2, 0) }
	}
	metis := func(in string) func() (*graph.Graph, error) {
		return func() (*graph.Graph, error) { return ReadMETIS(strings.NewReader(in), 2) }
	}
	bin := func(self []int64, triples ...int64) func() (*graph.Graph, error) {
		data := binaryFile(t, self, triples...)
		return func() (*graph.Graph, error) { return ReadBinary(bytes.NewReader(data), 2) }
	}
	for _, tc := range []struct {
		name string
		read func() (*graph.Graph, error)
		ok   bool
	}{
		{"edgelist duplicates and self-loops",
			edgeList(fmt.Sprintf("0 1 %d\n0 1 %d\n2 2 %d\n2 2 %d\n", big, big, big, big)), false},
		{"edgelist at the bound", edgeList(fmt.Sprintf("0 1 %d\n2 2 1\n", bound-1)), true},
		{"metis edge past the bound", metis(fmt.Sprintf("2 1 001\n2 %d\n1 %d\n", big, big)), false},
		{"metis at the bound", metis(fmt.Sprintf("2 1 001\n2 %d\n1 %d\n", bound, bound)), true},
		{"binary duplicate edges", bin([]int64{0, 0}, 0, 1, big, 0, 1, big), false},
		{"binary self-loop array", bin([]int64{big, big}), false},
		{"binary edges plus self-loops", bin([]int64{1, 0}, 0, 1, bound), false},
		{"binary at the bound", bin([]int64{1, 0}, 0, 1, bound-1), true},
	} {
		g, err := tc.read()
		if !tc.ok {
			if !errors.Is(err, graph.ErrWeightOverflow) {
				t.Errorf("%s: err = %v, want graph.ErrWeightOverflow", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := g.Validate(); err != nil || g.TotalWeight(2) != bound {
			t.Fatalf("%s: total %d (validate: %v)", tc.name, g.TotalWeight(2), err)
		}
	}
}

func TestReadInt64sPreallocatesKnownCount(t *testing.T) {
	// Below the speculative-allocation cap the known count is trusted for a
	// single up-front allocation: the returned slice must not carry
	// append-doubling slack even when the payload spans many read chunks.
	const count = 3 << 16 // three chunks
	payload := make([]int64, count)
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, payload); err != nil {
		t.Fatal(err)
	}
	out, err := readInt64s(bytes.NewReader(buf.Bytes()), count, "test")
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != count || cap(out) != count {
		t.Fatalf("len=%d cap=%d, want both %d (single up-front allocation)", len(out), cap(out), count)
	}
}

func TestReadInt64sCapsSpeculativeAllocation(t *testing.T) {
	// Above maxSpeculativeInt64s the claimed count must NOT be trusted: the
	// up-front allocation stays at the cap and the short stream errors out.
	// This is the shared defense for every reader built on readInt64s —
	// ReadBinary's header counts and the mapped format's section reads.
	payload := make([]int64, 16)
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, payload); err != nil {
		t.Fatal(err)
	}
	_, err := readInt64s(bytes.NewReader(buf.Bytes()), maxSpeculativeInt64s+1000, "test")
	if err == nil {
		t.Fatal("accepted a count above the speculative cap with a short stream")
	}
}

func TestWriteMETIS(t *testing.T) {
	g := gen.Ring(4)
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "4 4 001" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5", len(lines))
	}
	// Vertex 0's neighbors are 1 and 3 → 1-based "2 1" and "4 1".
	if !strings.Contains(lines[1], "2 1") || !strings.Contains(lines[1], "4 1") {
		t.Fatalf("vertex 0 adjacency %q", lines[1])
	}
}

func TestWriteCommunities(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCommunities(&buf, []int64{0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	want := "0 0\n1 0\n2 1\n3 2\n"
	if buf.String() != want {
		t.Fatalf("got %q, want %q", buf.String(), want)
	}
}

func assertSameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape differs: %d/%d vs %d/%d",
			a.NumVertices(), a.NumEdges(), b.NumVertices(), b.NumEdges())
	}
	if a.TotalWeight(1) != b.TotalWeight(1) {
		t.Fatalf("weight differs: %d vs %d", a.TotalWeight(1), b.TotalWeight(1))
	}
	ae, be := a.Edges(), b.Edges()
	sortEdges(ae)
	sortEdges(be)
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ae[i], be[i])
		}
	}
	for x := int64(0); x < a.NumVertices(); x++ {
		if a.Self[x] != b.Self[x] {
			t.Fatalf("Self[%d] differs: %d vs %d", x, a.Self[x], b.Self[x])
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

// failWriter errors after a fixed number of bytes, exercising the writers'
// error propagation.
type failWriter struct{ left int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, errWriteFailed
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, errWriteFailed
	}
	return n, nil
}

var errWriteFailed = fmt.Errorf("graphio test: write failed")

func TestWritersPropagateErrors(t *testing.T) {
	g, _, err := gen.SBM(1, gen.SBMConfig{Blocks: []int64{20, 20}, PIn: 0.5, POut: 0.05, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g.Self[0] = 3
	writers := map[string]func(io.Writer) error{
		"edgelist": func(w io.Writer) error { return WriteEdgeList(w, g) },
		"binary":   func(w io.Writer) error { return WriteBinary(w, g) },
		"metis":    func(w io.Writer) error { return WriteMETIS(w, g) },
		"communities": func(w io.Writer) error {
			return WriteCommunities(w, make([]int64, 100000))
		},
	}
	for name, write := range writers {
		for _, budget := range []int{0, 10, 100} {
			if err := write(&failWriter{left: budget}); err == nil {
				t.Errorf("%s: no error with %d-byte budget", name, budget)
			}
		}
		// Sanity: a big enough budget succeeds.
		if err := write(&failWriter{left: 1 << 26}); err != nil {
			t.Errorf("%s: failed with ample budget: %v", name, err)
		}
	}
}
