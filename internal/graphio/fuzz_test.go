package graphio

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// The fuzz targets assert that arbitrary inputs never panic the parsers and
// that anything accepted parses into a structurally valid graph. Run with
// `go test -fuzz=FuzzReadEdgeList ./internal/graphio` to explore beyond the
// seed corpus; under plain `go test` the seeds act as hardening tests.

// limitVertices shrinks the reader guard for the duration of a fuzz run so
// hostile ids are rejected instead of exercising gigantic allocations.
func limitVertices(f *testing.F) {
	old := MaxVertices
	MaxVertices = 1 << 20
	f.Cleanup(func() { MaxVertices = old })
}

func FuzzReadEdgeList(f *testing.F) {
	limitVertices(f)
	f.Add("0 1\n1 2 5\n")
	f.Add("# comment\n% other\n\n 3\t4 2\n")
	f.Add("0 0 7\n")
	f.Add("9999999999999999999999 1\n")
	f.Add("a b c\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadEdgeList(strings.NewReader(in), 1, 0)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted input produced invalid graph: %v\ninput: %q", err, in)
		}
	})
}

func FuzzReadMETIS(f *testing.F) {
	limitVertices(f)
	f.Add("3 3\n2 3\n1 3\n1 2\n")
	f.Add("2 1 001\n2 7\n1 7\n")
	f.Add("% c\n2 1 011 2\n5 5 2 9\n1 1 1 9\n")
	f.Add("2 99\n2\n1\n")
	f.Add("2 1 110 9223372036854775807\n1 2\n1 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := ReadMETIS(strings.NewReader(in), 1)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted input produced invalid graph: %v\ninput: %q", err, in)
		}
	})
}

func FuzzReadDeltas(f *testing.F) {
	limitVertices(f)
	f.Add("cdgu 1\nn 4\nbatch 1\n+ 0 1 2\n- 2 3\nend\n")
	f.Add("cdgu 1\nn 2\n# comment\nbatch 3\n+ 1 1 5\nend\nbatch 4\nend\n")
	f.Add("cdgu 1\nn 4\nbatch 1\n+ 0 9 1\nend\n")
	f.Add("cdgu 2\nn 4\n")
	f.Add("cdgu 1\nn 4\nbatch 2\nend\nbatch 1\nend\n")
	f.Add("cdgu 1\nn 4\nbatch 1\n+ 0 1 2\n")
	f.Fuzz(func(t *testing.T, in string) {
		n, batches, err := ReadDeltas(strings.NewReader(in))
		if err != nil {
			return
		}
		// Accepted streams must contain only in-universe, well-formed
		// updates with strictly increasing versions.
		var last uint64
		for _, d := range batches {
			if d.Version <= last && last != 0 {
				t.Fatalf("accepted stream has non-increasing versions\ninput: %q", in)
			}
			last = d.Version
			if err := d.Validate(n); err != nil {
				t.Fatalf("accepted stream produced invalid batch: %v\ninput: %q", err, in)
			}
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	limitVertices(f)
	var buf bytes.Buffer
	g, _ := ReadEdgeList(strings.NewReader("0 1\n1 2\n2 2 4\n"), 1, 0)
	if err := WriteBinary(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("garbage"))
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadBinary(bytes.NewReader(in), 1)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted input produced invalid graph: %v", err)
		}
	})
}

// FuzzOpenMappedReaderAt feeds hostile mmapcsr images to the pure-Go open
// path. Any input must either fail with an error or open into a view whose
// sections agree with the header; no input may panic, and the bytes
// allocated stay within a constant plus a small multiple of the input size,
// so no header field can size an allocation the file does not back. The
// seeds are mappedSeeds.
func FuzzOpenMappedReaderAt(f *testing.F) {
	limitVertices(f)
	for _, in := range mappedSeeds(f) {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mp, err := OpenMappedReaderAt(bytes.NewReader(in), int64(len(in)))
		runtime.ReadMemStats(&after)
		// The chunked section reader keeps one 512 KiB buffer per section
		// and grows each section to at most its file extent.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(4*len(in)+8<<20); grew > limit {
			t.Fatalf("open of a %d-byte image allocated %d bytes (limit %d)", len(in), grew, limit)
		}
		if err != nil {
			return
		}
		defer mp.Close()
		c := mp.CSR()
		n := mp.NumVertices()
		if c.NumVertices() != n || int64(len(c.Self)) != n {
			t.Fatalf("header |V|=%d, view serves %d vertices and %d self entries", n, c.NumVertices(), len(c.Self))
		}
		start, end := c.RowBounds()
		var prev int64
		for x := int64(0); x < n; x++ {
			if start[x] != prev || end[x] < start[x] {
				t.Fatalf("row %d spans [%d,%d) after a row ending at %d", x, start[x], end[x], prev)
			}
			prev = end[x]
		}
		if prev != 2*mp.NumEdges() || int64(len(c.Adj)) != prev || int64(len(c.Wgt)) != prev {
			t.Fatalf("rows cover %d entries, adj %d, wgt %d; header |E|=%d", prev, len(c.Adj), len(c.Wgt), mp.NumEdges())
		}
	})
}

// mappedSeeds returns the mmapcsr seed images the open-path fuzz targets
// share: a valid StreamMapped file, truncations of it, single bit flips at
// low, middle and high bits of every header field, an offsets section that
// decreases behind a consistent header, and consistent headers for graphs
// far larger than the file.
func mappedSeeds(f *testing.F) [][]byte {
	path := filepath.Join(f.TempDir(), "g.mmapcsr")
	triples := [][3]int64{{0, 1, 2}, {1, 2, 1}, {2, 2, 4}, {3, 0, 5}, {4, 1, 3}}
	if _, err := StreamMapped(path, 5, sliceSource(triples), StreamOptions{}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{valid, valid[:len(valid)/2], valid[:mappedPage], valid[:8*mappedHeaderFields]}
	for field := 0; field < mappedHeaderFields; field++ {
		for _, bit := range []int{0, 20, 62} {
			in := bytes.Clone(valid)
			in[8*field+bit/8] ^= 1 << (bit % 8)
			seeds = append(seeds, in)
		}
	}
	in := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(in[mappedPage+8:], 1<<40) // offsets[1]
	seeds = append(seeds, in)
	// Self-consistent headers for graphs far larger than the file: only the
	// size checks stand between them and section-sized allocations.
	for _, big := range []mappedLayout{layoutFor(1<<19, 4, 1), layoutFor(5, 1<<30, 1)} {
		in := bytes.Clone(valid)
		for i, v := range []int64{int64(mappedMagic), big.n, big.m, big.totW,
			big.offOffsets, big.offSelf, big.offAdj, big.offWgt, big.fileSize} {
			binary.LittleEndian.PutUint64(in[8*i:], uint64(v))
		}
		seeds = append(seeds, in)
	}
	return seeds
}
