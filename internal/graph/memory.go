package graph

// Footprint reports the storage a graph actually occupies, in 64-bit words,
// split the way the paper accounts for it (§IV-A): "a graph with |V|
// vertices and |E| non-self, unique edges requires space for 3|V| + 3|E|
// 64-bit integers plus a few additional scalars". A bucket implies its
// owner, so the measured figure is 3|V| + 2|E|.
type Footprint struct {
	// EdgeWords counts the edge arrays (V, W), two words per edge slot,
	// including any gap slots a non-contiguous contraction left behind.
	EdgeWords int64
	// VertexWords counts the per-vertex arrays (Self, Start, End).
	VertexWords int64
	// ScalarWords counts the bookkeeping scalars (|V|, |E|).
	ScalarWords int64
}

// TotalWords is the whole footprint in 64-bit words.
func (f Footprint) TotalWords() int64 { return f.EdgeWords + f.VertexWords + f.ScalarWords }

// Bytes is the footprint in bytes.
func (f Footprint) Bytes() int64 { return 8 * f.TotalWords() }

// MemoryFootprint measures the graph's storage. For a freshly built or
// compacted graph this is the paper's 3|V| + 3|E| formula (PaperFormulaWords)
// less the |E| owner words the buckets imply; after a non-contiguous
// contraction the edge arrays may be larger than 2|E| by the accumulated
// duplicate slots.
func (g *Graph) MemoryFootprint() Footprint {
	return Footprint{
		EdgeWords:   int64(len(g.V) + len(g.W)),
		VertexWords: int64(len(g.Self) + len(g.Start) + len(g.End)),
		ScalarWords: 2,
	}
}

// PaperFormulaWords returns the paper's §IV-A space estimate for this
// graph's dimensions: 3|V| + 3|E| words (excluding scalars).
func (g *Graph) PaperFormulaWords() int64 {
	return 3*g.NumVertices() + 3*g.NumEdges()
}

// MatchingWorkspaceWords returns the paper's §IV-B estimate of the scoring
// and matching phases' extra storage: "|E| + 4|V| 64-bit integers plus an
// additional |V| locks on OpenMP platforms". The lock words are reported
// separately because the Cray XMT needs none.
func MatchingWorkspaceWords(g *Graph) (words, lockWords int64) {
	return g.NumEdges() + 4*g.NumVertices(), g.NumVertices()
}

// ContractionWorkspaceWords returns the paper's §IV-C estimate of the
// bucket contraction's extra storage: "|V| + 1 + 2|E|", the additional |E|
// space that replaced the linked-list technique's |E| + |V|.
func ContractionWorkspaceWords(g *Graph) int64 {
	return g.NumVertices() + 1 + 2*g.NumEdges()
}
