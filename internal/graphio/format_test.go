package graphio

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// formatGraphs are the R-MAT and LJSim inputs the on-disk format pins use.
func formatGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rmat, _, err := gen.ConnectedRMAT(2, gen.DefaultRMAT(11, 3))
	if err != nil {
		t.Fatal(err)
	}
	lj, _, err := gen.LJSim(2, gen.DefaultLJSim(4000, 3))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"rmat": rmat, "lj": lj}
}

// sha returns the hex SHA-256 of b.
func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// TestBinaryRoundTripIsByteExact pins the compact binary format: reading a
// file and writing the graph back yields the same bytes, and the bytes of
// fixed R-MAT and LJSim graphs hash to pinned values.
func TestBinaryRoundTripIsByteExact(t *testing.T) {
	want := map[string]string{
		"rmat": "bf27ac994696839e702beb8e6a54d9c9080664ec28606ad473f89a1085d93227",
		"lj":   "4aea45fd01fdd86c47e8efeecaf8a30ca3c7a3121fb5db779929c0be0cfb8d8e",
	}
	for name, g := range formatGraphs(t) {
		var b bytes.Buffer
		if err := WriteBinary(&b, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(bytes.NewReader(b.Bytes()), 2)
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := WriteBinary(&again, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), b.Bytes()) {
			t.Fatalf("%s: WriteBinary(ReadBinary(b)) differs from b", name)
		}
		if got := sha(b.Bytes()); got != want[name] {
			t.Errorf("%s: binary image hashes to %s, pinned %s", name, got, want[name])
		}
	}
}

// TestStreamMappedRMATHashPinned pins the mmapcsr bytes StreamMapped writes
// for a fixed R-MAT stream.
func TestStreamMappedRMATHashPinned(t *testing.T) {
	const want = "bd3cac890564973324e6a4a47fa2b187fbf8cfc39eda8c722ae84b1a88130b84"
	n, src, err := gen.StreamRMAT(gen.DefaultRMAT(11, 9))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "rmat.mmapcsr")
	if _, err := StreamMapped(path, n, src, StreamOptions{MaxBufferedEdges: 1 << 12}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(b); got != want {
		t.Fatalf("StreamMapped image hashes to %s, pinned %s", got, want)
	}
}
