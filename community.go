// Package community is the public API of this reproduction of Riedy,
// Meyerhenke & Bader, "Scalable Multi-threaded Community Detection in
// Social Networks" (IPDPSW/MTAAP 2012): parallel agglomerative community
// detection by edge scoring, greedy heavy maximal matching, and community
// graph contraction.
//
// The facade re-exports the library's building blocks from the internal
// packages so that a typical user needs a single import:
//
//	g, truth, _ := community.LJSim(0, community.DefaultLJSim(100_000, 42))
//	res, _ := community.Detect(ctx, g, community.Options{MinCoverage: 0.5})
//	fmt.Println(community.Evaluate(0, g, res.CommunityOf, res.NumCommunities))
//
// Throughout the API, a worker-count parameter p of 0 (or an
// Options.Threads of 0) selects runtime.GOMAXPROCS.
package community

import (
	"context"
	"io"

	"repro/internal/baseline"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/harness"
	"repro/internal/hierarchy"
	"repro/internal/matching"
	"repro/internal/metrics"
	"repro/internal/pregel"
	"repro/internal/refine"
	"repro/internal/scoring"
	"repro/internal/sparse"
)

// Graph is the paper's bucketed triple representation of a weighted
// undirected graph (§IV-A). See the graph package for invariants.
type Graph = graph.Graph

// Edge is one weighted undirected input edge.
type Edge = graph.Edge

// CSR is a symmetric adjacency view of a Graph.
type CSR = graph.CSR

// Options configures Detect; the zero value maximizes modularity with the
// paper's improved kernels on all available threads.
type Options = core.Options

// Result is the outcome of Detect.
type Result = core.Result

// PhaseStats records one engine phase.
type PhaseStats = core.PhaseStats

// Termination labels why a run stopped.
type Termination = core.Termination

// Engine selects the detection pipeline: the paper's matching
// agglomeration, parallel label propagation, or the ensemble fast path
// that prelabels with PLP before agglomerating. See DESIGN.md §12.
type Engine = core.Engine

// Kernel selectors; see the core package.
const (
	MatchWorklist  = core.MatchWorklist
	MatchEdgeSweep = core.MatchEdgeSweep

	ContractBucket              = core.ContractBucket
	ContractBucketNonContiguous = core.ContractBucketNonContiguous
	ContractListChase           = core.ContractListChase

	EngineMatching = core.EngineMatching
	EnginePLP      = core.EnginePLP
	EngineEnsemble = core.EngineEnsemble

	// DefaultEnsembleSweeps bounds EngineEnsemble's prelabel pass when
	// Options.PLPMaxSweeps is zero; see Options.PLPMaxSweeps.
	DefaultEnsembleSweeps = core.DefaultEnsembleSweeps

	TermLocalMax       = core.TermLocalMax
	TermCoverage       = core.TermCoverage
	TermMaxPhases      = core.TermMaxPhases
	TermMinCommunities = core.TermMinCommunities
	TermCanceled       = core.TermCanceled
	TermPLPConverged   = core.TermPLPConverged
)

// ParseEngine maps an engine name ("matching", "plp", "ensemble") to its
// Engine value, as the CLIs' -engine flag does.
func ParseEngine(name string) (Engine, error) { return core.ParseEngine(name) }

// Scorer is the pluggable edge-scoring metric (§III).
type Scorer = scoring.Scorer

// ModularityScorer scores merges by the Newman–Girvan modularity change.
type ModularityScorer = scoring.Modularity

// ConductanceScorer scores merges by negated conductance change.
type ConductanceScorer = scoring.Conductance

// Detect runs the parallel agglomerative community detection algorithm on
// a scratch arena of its own, so only the first phase of the run allocates.
// The run checks ctx at phase and kernel boundaries and, once ctx is done,
// stops at the next boundary and returns the levels completed so far
// alongside an error wrapping ctx.Err(). A cancelled run therefore yields a
// non-nil partial Result whose Termination is TermCanceled.
func Detect(ctx context.Context, g *Graph, opt Options) (*Result, error) {
	return core.DetectContext(ctx, g, opt)
}

// Scratch is the engine's reusable buffer arena: scores, degrees, matching
// state, contraction histograms, and ping-pong community-graph storage,
// grown once and recycled across phases and runs. A zero Scratch is ready
// to use; it must not be shared by concurrent runs.
type Scratch = core.Scratch

// NewScratch returns an empty arena for DetectIncremental.
func NewScratch() *Scratch { return core.NewScratch() }

// Build assembles a Graph from raw edges with p workers, accumulating
// duplicates and folding self-loops.
func Build(p int, numVertices int64, edges []Edge) (*Graph, error) {
	return graph.Build(p, numVertices, edges)
}

// NewEmpty returns a graph with n vertices and no edges.
func NewEmpty(n int64) *Graph { return graph.NewEmpty(n) }

// ToCSR symmetrizes g into a CSR adjacency view.
func ToCSR(p int, g *Graph) *CSR { return graph.ToCSR(p, g) }

// Components labels connected components; LargestComponent extracts the
// biggest one with vertices renumbered.
func Components(p int, g *Graph) ([]int64, int64) { return graph.Components(p, g) }

// LargestComponent extracts the largest connected component of g.
func LargestComponent(p int, g *Graph) (*Graph, []int64) { return graph.LargestComponent(p, g) }

// Generator configurations and constructors (§V-B workloads).
type (
	// RMATConfig parameterizes the R-MAT generator.
	RMATConfig = gen.RMATConfig
	// LJSimConfig parameterizes the soc-LiveJournal1 stand-in.
	LJSimConfig = gen.LJSimConfig
	// WebCrawlConfig parameterizes the uk-2007-05 stand-in.
	WebCrawlConfig = gen.WebCrawlConfig
	// SBMConfig parameterizes the plain stochastic block model.
	SBMConfig = gen.SBMConfig
)

// DefaultRMAT returns the paper's R-MAT parameters (a=0.55, b=c=0.1,
// d=0.25, edge factor 16) at the given scale.
func DefaultRMAT(scale int, seed uint64) RMATConfig { return gen.DefaultRMAT(scale, seed) }

// RMATGraph samples an R-MAT graph; ConnectedRMAT additionally extracts the
// largest connected component, the paper's full pipeline.
func RMATGraph(p int, cfg RMATConfig) (*Graph, error) { return gen.RMATGraph(p, cfg) }

// ConnectedRMAT samples an R-MAT graph and keeps its largest component.
func ConnectedRMAT(p int, cfg RMATConfig) (*Graph, []int64, error) { return gen.ConnectedRMAT(p, cfg) }

// DefaultLJSim sizes the community-rich social-network stand-in.
func DefaultLJSim(n int64, seed uint64) LJSimConfig { return gen.DefaultLJSim(n, seed) }

// LJSim generates the soc-LiveJournal1 stand-in and its ground truth.
func LJSim(p int, cfg LJSimConfig) (*Graph, []int64, error) { return gen.LJSim(p, cfg) }

// DefaultWebCrawl sizes the crawl-like uk-2007-05 stand-in.
func DefaultWebCrawl(n int64, seed uint64) WebCrawlConfig { return gen.DefaultWebCrawl(n, seed) }

// WebCrawl generates the crawl-like graph and its host ground truth.
func WebCrawl(p int, cfg WebCrawlConfig) (*Graph, []int64, error) { return gen.WebCrawl(p, cfg) }

// SBM samples a stochastic block model graph with ground-truth labels.
func SBM(p int, cfg SBMConfig) (*Graph, []int64, error) { return gen.SBM(p, cfg) }

// Deterministic graphs for tests, examples, and sanity checks.
func Ring(n int64) *Graph           { return gen.Ring(n) }
func Star(n int64) *Graph           { return gen.Star(n) }
func Clique(n int64) *Graph         { return gen.Clique(n) }
func Grid(rows, cols int64) *Graph  { return gen.Grid(rows, cols) }
func CliqueChain(k, s int64) *Graph { return gen.CliqueChain(k, s) }
func Karate() *Graph                { return gen.Karate() }

// I/O in the dataset formats of §V-B.
func ReadEdgeList(r io.Reader, p int, minVertices int64) (*Graph, error) {
	return graphio.ReadEdgeList(r, p, minVertices)
}
func WriteEdgeList(w io.Writer, g *Graph) error     { return graphio.WriteEdgeList(w, g) }
func ReadBinary(r io.Reader, p int) (*Graph, error) { return graphio.ReadBinary(r, p) }
func WriteBinary(w io.Writer, g *Graph) error       { return graphio.WriteBinary(w, g) }
func WriteMETIS(w io.Writer, g *Graph) error        { return graphio.WriteMETIS(w, g) }
func ReadMETIS(r io.Reader, p int) (*Graph, error)  { return graphio.ReadMETIS(r, p) }
func WriteCommunities(w io.Writer, comm []int64) error {
	return graphio.WriteCommunities(w, comm)
}

// Out-of-core pipeline (DESIGN.md §15): the page-aligned memory-mappable
// mmapcsr on-disk layout, the bounded-memory streaming writer that builds
// it from an edge source without materializing the graph, and sharded
// detection that runs the engine per vertex shard in parallel and stitches
// boundary communities over the quotient graph of cut edges.
type (
	// MappedGraph is an opened mmapcsr file: a CSR view over the mapping
	// (or a decoded copy where mmap is unavailable).
	MappedGraph = graphio.Mapped
	// StreamOptions bounds StreamMapped's memory use.
	StreamOptions = graphio.StreamOptions
	// StreamStats summarizes one streaming write.
	StreamStats = graphio.StreamStats
	// EdgeSource is a restartable, deterministic edge stream consumed by
	// StreamMapped (it runs twice: degree count, then placement).
	EdgeSource = graphio.EdgeSource
	// ShardOptions configures DetectSharded.
	ShardOptions = core.ShardOptions
	// ShardResult is DetectSharded's outcome.
	ShardResult = core.ShardResult
	// ShardStat describes one shard's local detection.
	ShardStat = core.ShardStat
)

// Advice values for MappedGraph.Advise.
const (
	AdviseNormal     = graphio.AdviseNormal
	AdviseRandom     = graphio.AdviseRandom
	AdviseSequential = graphio.AdviseSequential
)

// OpenMapped maps an mmapcsr file; the returned CSR views the file pages
// directly, so opening is O(1) in the graph size. Close unmaps it.
func OpenMapped(path string) (*MappedGraph, error) { return graphio.OpenMapped(path) }

// WriteMapped serializes g in the mmapcsr layout (rows neighbor-sorted, so
// the bytes are deterministic for a given graph).
func WriteMapped(w io.Writer, p int, g *Graph) error { return graphio.WriteMapped(w, p, g) }

// StreamMapped builds an mmapcsr file of numVertices vertices from src in
// bounded memory (two passes over src, an out-of-core counting sort); the
// graph never materializes on the heap.
func StreamMapped(path string, numVertices int64, src EdgeSource, opt StreamOptions) (StreamStats, error) {
	return graphio.StreamMapped(path, numVertices, src, opt)
}

// StreamRMAT returns the vertex count and a deterministic restartable edge
// source replaying cfg's R-MAT sequence, for feeding StreamMapped.
func StreamRMAT(cfg RMATConfig) (int64, EdgeSource, error) {
	n, src, err := gen.StreamRMAT(cfg)
	return n, EdgeSource(src), err
}

// SortCSRRows sorts each CSR row by neighbor id in place, canonicalizing
// ToCSR's parallel scatter order; mmapcsr files are stored sorted already.
func SortCSRRows(p int, c *CSR) { graph.SortCSRRows(p, c) }

// FromCSR materializes a CSR view (e.g. a MappedGraph's) back into a Graph.
func FromCSR(p int, c *CSR) (*Graph, error) { return graph.FromCSR(p, c) }

// VerifyCSR checks full CSR symmetry and bounds in O(|V|+|E|).
func VerifyCSR(c *CSR) error { return graph.VerifyCSR(c) }

// DetectSharded partitions c's vertices into edge-balanced shards, detects
// communities per shard in parallel, and stitches across shard boundaries
// with one agglomeration pass over the quotient graph of cut edges. With a
// MappedGraph's CSR the full edge set never lands on the heap.
func DetectSharded(ctx context.Context, c *CSR, opt ShardOptions) (*ShardResult, error) {
	return core.DetectSharded(ctx, c, opt)
}

// Dynamic graph store (DESIGN.md §14): an immutable base graph plus a
// mutable delta overlay, with incremental re-detection seeded from the
// previous run's hierarchy.
type (
	// Delta is one versioned batch of edge updates.
	Delta = graph.Delta
	// Update is a single insert or delete inside a Delta.
	Update = graph.Update
	// Overlay is the mutable tier over an immutable base Graph.
	Overlay = graph.Overlay
	// OverlayStats counts the update traffic an overlay has absorbed.
	OverlayStats = graph.OverlayStats
	// IncrementalResult is one incremental re-detection's output: a
	// Result plus the dendrogram and base graph chaining into the next
	// batch, and the dissolution counters.
	IncrementalResult = core.IncrementalResult
	// DeltaConfig parameterizes the churn-stream generator.
	DeltaConfig = gen.DeltaConfig
	// DeltaScanner streams cdgu update batches from a reader.
	DeltaScanner = graphio.DeltaScanner
)

// NewOverlay wraps base in a mutable overlay using p workers (0 = all).
// The overlay never mutates base.
func NewOverlay(p int, base *Graph) *Overlay { return graph.NewOverlay(p, base) }

// DetectIncremental applies batch to the overlay, compacts it, and
// re-detects from prev's final partition with only the batch-incident
// communities dissolved. Requires EngineMatching. Passing one Scratch for
// every batch keeps the steady state allocation-free; a nil s runs on a new
// arena. Invalid options are rejected before the batch is applied.
func DetectIncremental(ctx context.Context, ov *Overlay, prev *Dendrogram, batch *Delta, opt Options, s *Scratch) (*IncrementalResult, error) {
	return core.DetectIncrementalWithContext(ctx, ov, prev, batch, opt, s)
}

// GenDeltas samples a reproducible churn stream against a live graph; see
// DeltaConfig (Hubs confines the churn to a fixed hot set).
func GenDeltas(g *Graph, cfg DeltaConfig) ([]*Delta, error) { return gen.Deltas(g, cfg) }

// Update-stream I/O in the cdgu text format.
func WriteDeltas(w io.Writer, numVertices int64, batches []*Delta) error {
	return graphio.WriteDeltas(w, numVertices, batches)
}
func ReadDeltas(r io.Reader) (int64, []*Delta, error) { return graphio.ReadDeltas(r) }
func NewDeltaScanner(r io.Reader) (*DeltaScanner, error) {
	return graphio.NewDeltaScanner(r)
}

// Quality metrics.
type QualitySummary = metrics.Summary

// Evaluate computes modularity, coverage, conductance, and size statistics
// of a partition.
func Evaluate(p int, g *Graph, comm []int64, k int64) QualitySummary {
	return metrics.Evaluate(p, g, comm, k)
}

// Modularity evaluates Newman–Girvan modularity of a partition.
func Modularity(p int, g *Graph, comm []int64, k int64) float64 {
	return metrics.Modularity(p, g, comm, k)
}

// Coverage is the fraction of edge weight inside communities.
func Coverage(p int, g *Graph, comm []int64, k int64) float64 {
	return metrics.Coverage(p, g, comm, k)
}

// Agreement quantifies how well a detected partition matches a reference.
type Agreement = metrics.Agreement

// Compare evaluates NMI, ARI, and pair-F1 between two dense partitions of
// the same vertex set (e.g., detected communities vs. a generator's ground
// truth).
func Compare(pred []int64, kPred int64, truth []int64, kTruth int64) (Agreement, error) {
	return metrics.Compare(pred, kPred, truth, kTruth)
}

// Densify relabels arbitrary community ids densely into [0, k).
func Densify(comm []int64) ([]int64, int64) { return metrics.Densify(comm) }

// Sequential baselines (the paper's SNAP-style comparators, §II and §V).
type (
	CNMResult     = baseline.CNMResult
	LouvainResult = baseline.LouvainResult
)

// CNM runs Clauset–Newman–Moore greedy modularity agglomeration.
func CNM(g *Graph) *CNMResult { return baseline.CNM(g) }

// Louvain runs the sequential multilevel method of Blondel et al.
func Louvain(g *Graph, seed uint64) *LouvainResult { return baseline.Louvain(g, seed) }

// Refinement extension (§II future work).
type (
	RefineOptions = refine.Options
	RefineResult  = refine.Result
)

// Refine improves a partition by greedy vertex moves; the result is never
// worse than the input.
func Refine(g *Graph, comm []int64, k int64, opt RefineOptions) (*RefineResult, error) {
	return refine.Refine(g, comm, k, opt)
}

// Hierarchy utilities: the engine's contraction levels as a dendrogram.
type Dendrogram = hierarchy.Dendrogram

// NewDendrogram builds a queryable dendrogram from a detection result's
// Levels (valid when Options.RefineEveryPhase is off).
func NewDendrogram(n int64, levels [][]int64) (*Dendrogram, error) {
	return hierarchy.New(n, levels)
}

// Sparse matrix substrate (§VI: the Combinatorial-BLAS-style formulation).
type (
	SparseMatrix = sparse.Matrix
	SparseTriple = sparse.Triple
)

// AdjacencyMatrix converts a graph to its symmetric CSR adjacency matrix
// (diagonal = 2·self-loop weight).
func AdjacencyMatrix(p int, g *Graph) (*SparseMatrix, error) { return sparse.FromGraph(p, g) }

// ContractAlgebraic computes a community graph as the sparse triple product
// SᵀAS; identical output to the direct bucket kernel.
func ContractAlgebraic(p int, g *Graph, comm []int64, k int64) (*Graph, error) {
	return sparse.ContractAlgebraic(p, g, comm, k)
}

// Pregel-style BSP substrate (§VI: "cloud-based implementations through
// environments like Pregel").
type (
	// BSPEngine runs vertex programs in supersteps.
	BSPEngine = pregel.Engine
	// BSPContext is a vertex program's view of its vertex.
	BSPContext = pregel.Context
	// BSPProgram is a vertex program.
	BSPProgram = pregel.Program
)

// NewBSPEngine prepares a bulk-synchronous vertex-centric engine over g.
func NewBSPEngine(p int, g *Graph, maxSupersteps int) *BSPEngine {
	return pregel.NewEngine(p, g, maxSupersteps)
}

// BSPConnectedComponents runs the classic Pregel min-label components
// program; identical labels to Components.
func BSPConnectedComponents(p int, g *Graph) ([]int64, int, error) {
	return pregel.ConnectedComponents(p, g)
}

// LabelPropagation runs synchronous label-propagation community detection
// as a vertex program — one more cheap baseline.
func LabelPropagation(p int, g *Graph, maxSupersteps int) (comm []int64, k int64, supersteps int, err error) {
	return pregel.LabelPropagation(p, g, maxSupersteps)
}

// Benchmark harness (the §V evaluation).
type (
	BenchRecord = harness.Record
	BenchConfig = harness.Config
)

// Sweep runs a thread sweep of detection trials on g.
func Sweep(g *Graph, name string, cfg BenchConfig) ([]BenchRecord, error) {
	return harness.Sweep(g, name, cfg)
}

// DefaultBenchConfig mirrors the paper's §V methodology.
func DefaultBenchConfig() BenchConfig { return harness.DefaultConfig() }

// Compile-time checks that the facade's kernel constants stay in sync with
// the implementing packages.
var (
	_ = contract.Contiguous
	_ = matching.Unmatched
)
