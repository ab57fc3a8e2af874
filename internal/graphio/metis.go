package graphio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"repro/internal/graph"
)

// ReadMETIS parses a METIS .graph file — the format of the 10th DIMACS
// Implementation Challenge whose rules the paper's termination criterion
// follows (§III). Header: "n m [fmt [ncon]]" where fmt's last digit set
// means edge weights, second digit vertex weights (with ncon weights per
// vertex, skipped on read), third digit vertex sizes (skipped). Vertex ids
// are 1-based; '%' starts a comment line; each edge appears in both
// endpoints' adjacency lines.
func ReadMETIS(r io.Reader, p int) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	nextLine := func() ([]string, error) {
		for sc.Scan() {
			line := sc.Bytes()
			i := 0
			for i < len(line) && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r') {
				i++
			}
			if i == len(line) || line[i] == '%' {
				continue
			}
			return splitFields(line[i:]), nil
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}

	header, err := nextLine()
	if err != nil {
		return nil, fmt.Errorf("graphio: METIS header: %w", err)
	}
	if len(header) < 2 || len(header) > 4 {
		return nil, fmt.Errorf("graphio: METIS header has %d fields", len(header))
	}
	n, err := strconv.ParseInt(header[0], 10, 64)
	if err != nil || n < 0 || n >= MaxVertices {
		return nil, fmt.Errorf("graphio: bad METIS vertex count %q", header[0])
	}
	m, err := strconv.ParseInt(header[1], 10, 64)
	if err != nil || m < 0 {
		return nil, fmt.Errorf("graphio: bad METIS edge count %q", header[1])
	}
	format := int64(0)
	if len(header) >= 3 {
		format, err = strconv.ParseInt(header[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graphio: bad METIS format %q", header[2])
		}
	}
	hasEdgeWeights := format%10 == 1
	hasVertexWeights := (format/10)%10 == 1
	hasVertexSizes := (format/100)%10 == 1
	ncon := int64(0)
	if hasVertexWeights {
		ncon = 1
		if len(header) == 4 {
			ncon, err = strconv.ParseInt(header[3], 10, 64)
			if err != nil || ncon < 1 {
				return nil, fmt.Errorf("graphio: bad METIS ncon %q", header[3])
			}
		}
	}

	// The header's m is untrusted; cap the preallocation so a hostile
	// header cannot force a huge up-front allocation.
	capHint := m
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	edges := make([]graph.Edge, 0, capHint)
	for u := int64(0); u < n; u++ {
		fields, err := nextLine()
		if err == io.EOF {
			return nil, fmt.Errorf("graphio: METIS file ends at vertex %d of %d", u+1, n)
		}
		if err != nil {
			return nil, fmt.Errorf("graphio: %w", err)
		}
		i := 0
		if hasVertexSizes {
			i++ // vertex size, unused
		}
		// ncon is the header's, so compare before converting: a huge one
		// would wrap the field index negative as an int.
		if ncon > int64(len(fields)-i) {
			return nil, fmt.Errorf("graphio: vertex %d line too short for format %d", u+1, format)
		}
		i += int(ncon) // vertex weights, unused
		for i < len(fields) {
			v, err := strconv.ParseInt(fields[i], 10, 64)
			if err != nil || v < 1 || v > n {
				return nil, fmt.Errorf("graphio: vertex %d: bad neighbor %q", u+1, fields[i])
			}
			i++
			w := int64(1)
			if hasEdgeWeights {
				if i >= len(fields) {
					return nil, fmt.Errorf("graphio: vertex %d: missing weight", u+1)
				}
				w, err = strconv.ParseInt(fields[i], 10, 64)
				if err != nil || w <= 0 {
					return nil, fmt.Errorf("graphio: vertex %d: bad weight %q", u+1, fields[i])
				}
				i++
			}
			// Each undirected edge is listed from both sides; keep the
			// occurrence from the smaller endpoint.
			if v-1 > u {
				edges = append(edges, graph.Edge{U: u, V: v - 1, W: w})
			}
		}
	}
	if int64(len(edges)) != m {
		return nil, fmt.Errorf("graphio: METIS header promises %d edges, adjacency lists carry %d", m, len(edges))
	}
	return graph.Build(p, n, edges)
}
