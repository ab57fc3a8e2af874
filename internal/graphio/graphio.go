// Package graphio reads and writes graphs in the formats the paper's
// datasets ship in: whitespace-separated edge lists (SNAP's soc-LiveJournal1
// format, '#' and '%' comment lines), the DIMACS Implementation Challenge
// variant of the same, METIS .graph files (written for interoperability with
// partitioning tools), and a compact binary format for fast reloads of
// generated workloads.
package graphio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strconv"

	"repro/internal/graph"
)

// MaxVertices bounds the vertex ids every reader accepts. The bucketed
// representation is dense in the vertex id, so a single absurd id in a
// malformed file would otherwise force an allocation of 3·maxID words;
// readers reject such inputs with an error instead. The default admits 2³¹
// vertices (20× the paper's largest graph); raise it for bigger machines or
// lower it (e.g. in fuzz harnesses or memory-constrained services) to
// tighten the guard.
var MaxVertices int64 = 1 << 31

// maxSpeculativeBytes bounds how much any reader in this package allocates
// on the strength of an unverified header alone. Both binary readers share
// it: ReadBinary's chunked payload reader (readInt64s) caps its upfront
// capacity hint at this many bytes, so a corrupt or hostile header claiming
// huge counts must deliver actual stream bytes before the slice grows past
// the cap; and OpenMapped's pure-Go fallback routes every section read
// through the same chunked reader after validating the declared section
// extents against the real file size. 64 MiB holds 8 Mi int64s — large
// enough that honestly-sized graphs never pay an append-doubling copy,
// small enough that a forged header cannot force a giant allocation.
const maxSpeculativeBytes = 64 << 20

// maxSpeculativeInt64s is maxSpeculativeBytes in int64 units, the form the
// chunked reader works in.
const maxSpeculativeInt64s = maxSpeculativeBytes / 8

// ReadEdgeList parses a whitespace-separated edge list: one "u v [w]" triple
// per line, '#' or '%' starting a comment line, blank lines ignored. Vertex
// ids are non-negative integers below MaxVertices; the graph size is one
// past the largest id seen unless minVertices demands more. A missing
// weight means 1. Duplicate edges accumulate and self-loops fold into Self,
// matching the paper's accumulation rule.
func ReadEdgeList(r io.Reader, p int, minVertices int64) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var edges []graph.Edge
	maxID := int64(-1)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		// Trim leading spaces and skip comments/blanks.
		i := 0
		for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
			i++
		}
		if i == len(line) || line[i] == '#' || line[i] == '%' {
			continue
		}
		fields := splitFields(line[i:])
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("graphio: line %d: want 2 or 3 fields, got %d", lineNo, len(fields))
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad source %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad target %q: %v", lineNo, fields[1], err)
		}
		w := int64(1)
		if len(fields) == 3 {
			w, err = strconv.ParseInt(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graphio: line %d: bad weight %q: %v", lineNo, fields[2], err)
			}
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graphio: line %d: negative vertex id", lineNo)
		}
		if u >= MaxVertices || v >= MaxVertices {
			return nil, fmt.Errorf("graphio: line %d: vertex id beyond MaxVertices=%d", lineNo, MaxVertices)
		}
		if w <= 0 {
			return nil, fmt.Errorf("graphio: line %d: non-positive weight %d", lineNo, w)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, graph.Edge{U: u, V: v, W: w})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	n := maxID + 1
	if n < minVertices {
		n = minVertices
	}
	return graph.Build(p, n, edges)
}

// splitFields splits on runs of spaces/tabs without allocating a string per
// byte; the scanner line buffer is reused so fields are copied out.
func splitFields(b []byte) []string {
	var out []string
	i := 0
	for i < len(b) {
		for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r') {
			i++
		}
		j := i
		for j < len(b) && b[j] != ' ' && b[j] != '\t' && b[j] != '\r' {
			j++
		}
		if j > i {
			out = append(out, string(b[i:j]))
		}
		i = j
	}
	return out
}

// WriteEdgeList writes g as "u v w" lines, one stored edge per line, plus
// "v v w" lines for non-zero self-loop weights. The output round-trips
// through ReadEdgeList (up to vertex-count padding for trailing isolated
// vertices).
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# vertices %d edges %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	var werr error
	g.ForEachEdge(func(_ int64, u, v, wt int64) {
		if werr != nil {
			return
		}
		_, werr = fmt.Fprintf(bw, "%d %d %d\n", u, v, wt)
	})
	if werr != nil {
		return werr
	}
	for x := int64(0); x < g.NumVertices(); x++ {
		if g.Self[x] != 0 {
			if _, err := fmt.Fprintf(bw, "%d %d %d\n", x, x, g.Self[x]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// binaryMagic identifies the compact binary graph format, version 1.
const binaryMagic = uint64(0x43444742_01) // "CDGB" + version

// WriteBinary serializes g in the compact little-endian binary format:
// magic, |V|, |E|, then Self[|V|], then |E| (u, v, w) triples in bucket
// order.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	hdr := []uint64{binaryMagic, uint64(g.NumVertices()), uint64(g.NumEdges())}
	for _, h := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, g.Self); err != nil {
		return err
	}
	buf := make([]int64, 0, 3*1024)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		err := binary.Write(bw, binary.LittleEndian, buf)
		buf = buf[:0]
		return err
	}
	var werr error
	g.ForEachEdge(func(_ int64, u, v, wt int64) {
		if werr != nil {
			return
		}
		buf = append(buf, u, v, wt)
		if len(buf) == cap(buf) {
			werr = flush()
		}
	})
	if werr != nil {
		return werr
	}
	if err := flush(); err != nil {
		return err
	}
	return bw.Flush()
}

// SniffBinaryMagic reports whether head begins with the compact binary
// format's magic (format auto-detection for cmd/convert; the mapped format
// has its own SniffMapped).
func SniffBinaryMagic(head []byte) bool {
	return len(head) >= 8 && binary.LittleEndian.Uint64(head) == binaryMagic
}

// ReadBinary deserializes a graph written by WriteBinary.
func ReadBinary(r io.Reader, p int) (*graph.Graph, error) {
	br := bufio.NewReader(r)
	var hdr [3]uint64
	if err := binary.Read(br, binary.LittleEndian, hdr[:]); err != nil {
		return nil, fmt.Errorf("graphio: binary header: %w", err)
	}
	if hdr[0] != binaryMagic {
		return nil, fmt.Errorf("graphio: bad magic %#x", hdr[0])
	}
	n, m := int64(hdr[1]), int64(hdr[2])
	if n < 0 || m < 0 || n >= MaxVertices || m > (1<<44) {
		return nil, fmt.Errorf("graphio: implausible sizes |V|=%d |E|=%d", n, m)
	}
	// n and m are untrusted until the body is actually read, so pull the
	// payload in bounded chunks: a hostile header with huge counts then
	// fails on the short stream before any giant allocation happens.
	self, err := readInt64s(br, n, "self-loops")
	if err != nil {
		return nil, err
	}
	triples, err := readInt64s(br, 3*m, "edges")
	if err != nil {
		return nil, err
	}
	// The self-loop array is added after Build, so it answers to the same
	// total-weight bound Build checks for the edges: room is what the
	// bound leaves once the self-loops and the positive edge weights are
	// taken out (Build rejects the others).
	room := int64(graph.MaxTotalWeight)
	for x, w := range self {
		if w < 0 {
			return nil, fmt.Errorf("graphio: negative self-loop weight at vertex %d", x)
		}
		if w > room {
			return nil, fmt.Errorf("graphio: self-loop weights sum past %d at vertex %d: %w",
				int64(graph.MaxTotalWeight), x, graph.ErrWeightOverflow)
		}
		room -= w
	}
	edges := make([]graph.Edge, m)
	over := false
	for i := int64(0); i < m; i++ {
		w := triples[3*i+2]
		edges[i] = graph.Edge{U: triples[3*i], V: triples[3*i+1], W: w}
		if w > room {
			over = true
		} else if w > 0 {
			room -= w
		}
	}
	g, err := graph.Build(p, n, edges)
	if err != nil {
		return nil, err
	}
	if over {
		return nil, fmt.Errorf("graphio: edge and self-loop weights sum past %d: %w",
			int64(graph.MaxTotalWeight), graph.ErrWeightOverflow)
	}
	for x, w := range self {
		g.Self[x] += w
	}
	return g, nil
}

// readInt64s reads exactly count little-endian int64s in bounded chunks.
// The destination is allocated for count up front — clamping the hint to one
// read chunk made every large graph pay log₂(count/chunk) append-doubling
// copies of data already in memory — but only up to maxSpeculativeInt64s: a
// corrupt or hostile header claiming more must deliver actual stream bytes
// before the slice grows past that, so the giant-allocation defense is
// preserved (see the maxSpeculativeBytes doc).
func readInt64s(r io.Reader, count int64, what string) ([]int64, error) {
	const chunk = 1 << 16
	capHint := count
	if capHint > maxSpeculativeInt64s {
		capHint = maxSpeculativeInt64s
	}
	out := make([]int64, 0, capHint)
	buf := make([]int64, chunk)
	for remaining := count; remaining > 0; {
		c := remaining
		if c > chunk {
			c = chunk
		}
		if err := binary.Read(r, binary.LittleEndian, buf[:c]); err != nil {
			return nil, fmt.Errorf("graphio: binary %s: %w", what, err)
		}
		out = append(out, buf[:c]...)
		remaining -= c
	}
	return out, nil
}

// WriteMETIS writes g in METIS .graph format (1-based vertex ids, header
// "n m fmt" with fmt=001 for edge weights, one adjacency line per vertex).
// Self-loop weights are not representable in METIS and are dropped with no
// error; callers that care should check beforehand.
func WriteMETIS(w io.Writer, g *graph.Graph) error {
	c := graph.ToCSR(0, g)
	bw := bufio.NewWriter(w)
	n := c.NumVertices()
	if _, err := fmt.Fprintf(bw, "%d %d 001\n", n, g.NumEdges()); err != nil {
		return err
	}
	for x := int64(0); x < n; x++ {
		adj, wgt := c.Neighbors(x)
		for i, v := range adj {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%d %d", v+1, wgt[i]); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteCommunities writes a vertex→community assignment, one "vertex
// community" pair per line.
func WriteCommunities(w io.Writer, comm []int64) error {
	bw := bufio.NewWriter(w)
	for v, c := range comm {
		if _, err := fmt.Fprintf(bw, "%d %d\n", v, c); err != nil {
			return err
		}
	}
	return bw.Flush()
}
