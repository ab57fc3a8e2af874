package main

// Every call into the system under test lives in this file. The ops mirror
// the CLI's entry points (cmd/communities): core.DetectContext for a
// single-image detection, core.DetectIncrementalWithContext for each batch
// of an update stream, and graphio.OpenMapped + core.DetectSharded for the
// out-of-core path. The rest of the package sees only the instance
// interface and the outcome, layers and counters types, so a change
// to the system's API edits this file and moves no span boundary.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/graphio"
	"repro/internal/hierarchy"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/seq"
)

const (
	// minCoverage is the paper's §V termination rule, used by every
	// detection.
	minCoverage = 0.5
	// shards is K for the out-of-core workload.
	shards = 4
	// Each churn batch updates 1% of the graph's edges inside a fixed hot
	// set of 64 vertices. churnBatches batches are generated once and
	// replayed in a cycle, so a fast system never runs out of input.
	churnFrac    = 0.01
	churnHubs    = 64
	churnBatches = 64
	// qualitySlack is how far below the reference modularity the
	// tolerance oracles accept a result.
	qualitySlack = 0.05
)

// sizes fixes every workload's input.
type sizes struct {
	rmatScale   int   // R-MAT scale of rmat-agglom
	ljVertices  int64 // LJSim vertices of lj-agglom, lj-ensemble and lj-churn
	streamScale int   // R-MAT scale of rmat-outofcore
}

// outcome is one op's output in the benchmark's terms.
type outcome struct {
	comm       []int64 // vertex → community
	k          int64   // community count
	modularity float64 // as the system reports it
	layers     layers
	rec        *obs.Recorder // the traced op's recorder; nil when untraced
}

// layers is one op's time split and work counts, read from the PhaseStats
// and ShardStats the system returns with every result. Times are seconds.
type layers struct {
	scoring, matching, contract, plp float64
	tail                             float64 // kernel time in levels with < 1% of the input vertices
	levels                           int
	passes, pairs, levelVertices     int64 // matching levels only
	plpSweeps                        int
	shardMax, shardMean, stitch      float64 // sharded ops only
	open                             float64 // sharded ops only: graphio.OpenMapped
	cutFrac                          float64 // sharded ops only: cut edges ÷ input edges
	dissolvedFrac                    float64 // incremental ops only: dissolved vertices ÷ vertices
	apply, compact                   float64 // incremental ops only: the shadow overlay's timings
}

// counters is one traced op's engine counters.
type counters struct {
	visits, claims, conflicts   int64
	edgesIn, survived, edgesOut int64
	sortS                       float64
	imbalance                   float64 // the worst parallel region's max ÷ mean worker time
}

// counters reads the op's recorder; the zero value when it was not traced.
func (o *outcome) counters() counters {
	r := o.rec
	if r == nil {
		return counters{}
	}
	c := counters{
		visits:    r.Counter(obs.CtrMatchActive),
		claims:    r.Counter(obs.CtrMatchClaims),
		conflicts: r.Counter(obs.CtrMatchConflicts),
		edgesIn:   r.Counter(obs.CtrContractEdgesIn),
		survived:  r.Counter(obs.CtrContractSurvived),
		edgesOut:  r.Counter(obs.CtrContractEdgesOut),
		sortS:     float64(r.Counter(obs.CtrContractSortNS)) / 1e9,
	}
	for _, reg := range r.Export().Regions {
		c.imbalance = math.Max(c.imbalance, reg.Imbalance)
	}
	return c
}

// kernelLayers sums a result's per-level kernel times. With stageRow set,
// Stats[0] is the ensemble's PLP prelabel or the incremental seed
// contraction: its MatchTime is PLP time and its MatchedPairs counts merged
// vertices rather than pairs, so it feeds plp and contract but none of the
// matching counts.
func kernelLayers(stats []core.PhaseStats, stageRow bool, n int64) layers {
	l := layers{levels: len(stats)}
	for i, st := range stats {
		l.scoring += st.ScoreTime.Seconds()
		l.contract += st.ContractTime.Seconds()
		if i == 0 && stageRow {
			l.plp += st.MatchTime.Seconds()
			l.plpSweeps += st.MatchPasses
		} else {
			l.matching += st.MatchTime.Seconds()
			l.passes += int64(st.MatchPasses)
			l.pairs += st.MatchedPairs
			l.levelVertices += st.Vertices
		}
		if st.Vertices*100 < n {
			l.tail += (st.ScoreTime + st.MatchTime + st.ContractTime).Seconds()
		}
	}
	return l
}

// options is the detection configuration of every op: the paper's coverage
// rule on the given thread budget, with a fresh recorder when traced.
func options(threads int, engine core.Engine, traced bool) core.Options {
	opt := core.Options{Threads: threads, MinCoverage: minCoverage, Engine: engine}
	if traced {
		opt.Recorder = obs.New()
	}
	return opt
}

// hostMeta is the host fingerprint every report carries.
func hostMeta() *report.Meta { return report.CollectMeta() }

func rmatGraph(e env) (*graph.Graph, error) {
	g, _, err := gen.ConnectedRMAT(maxThreads, gen.DefaultRMAT(e.sizes.rmatScale, e.seed))
	return g, err
}

func ljGraph(e env) (*graph.Graph, error) {
	g, _, err := gen.LJSim(maxThreads, gen.DefaultLJSim(e.sizes.ljVertices, e.seed))
	return g, err
}

// serialize writes g in graphio's binary format, so that set-up can time
// graphio.ReadBinary.
func serialize(g *graph.Graph) ([]byte, error) {
	var b bytes.Buffer
	if err := graphio.WriteBinary(&b, g); err != nil {
		return nil, fmt.Errorf("serializing input: %w", err)
	}
	return b.Bytes(), nil
}

// load reads a serialized input and returns the load time.
func load(tr *tracer, input []byte) (*graph.Graph, float64, error) {
	defer tr.span("graphio.ReadBinary")()
	t0 := time.Now()
	g, err := graphio.ReadBinary(bytes.NewReader(input), maxThreads)
	return g, time.Since(t0).Seconds(), err
}

func recompute(tr *tracer, g *graph.Graph, o *outcome) float64 {
	defer tr.span("metrics.Modularity")()
	return metrics.Modularity(maxThreads, g, o.comm, o.k)
}

// detectInstance runs single-image detection on an in-memory graph.
type detectInstance struct {
	tr     *tracer
	engine core.Engine
	input  []byte
	g      *graph.Graph // loaded by setup
}

func newDetect(e env, engine core.Engine, graphOf func(env) (*graph.Graph, error)) (instance, error) {
	g, err := graphOf(e)
	if err != nil {
		return nil, err
	}
	input, err := serialize(g)
	return &detectInstance{tr: e.tr, engine: engine, input: input}, err
}

func rmatAgglom(e env) (instance, error) { return newDetect(e, core.EngineMatching, rmatGraph) }
func ljAgglom(e env) (instance, error)   { return newDetect(e, core.EngineMatching, ljGraph) }
func ljEnsemble(e env) (instance, error) { return newDetect(e, core.EngineEnsemble, ljGraph) }

func (d *detectInstance) setup(context.Context) (float64, error) {
	g, secs, err := load(d.tr, d.input)
	d.g = g
	return secs, err
}

func (d *detectInstance) edges() int64 { return d.g.NumEdges() }

func (d *detectInstance) probe() (float64, float64, error) { return 0, 0, nil }

func (d *detectInstance) op(ctx context.Context, threads int, traced bool) (*outcome, error) {
	opt := options(threads, d.engine, traced)
	end := d.tr.span("core.DetectContext")
	res, err := core.DetectContext(ctx, d.g, opt)
	end()
	if err != nil {
		return nil, err
	}
	return &outcome{
		comm: res.CommunityOf, k: res.NumCommunities, modularity: res.FinalModularity, rec: opt.Recorder,
		layers: kernelLayers(res.Stats, d.engine != core.EngineMatching, d.g.NumVertices()),
	}, nil
}

func (d *detectInstance) valid(o *outcome) error {
	return metrics.ValidatePartition(o.comm, d.g.NumVertices(), o.k)
}

func (d *detectInstance) modularity(o *outcome) (float64, error) { return recompute(d.tr, d.g, o), nil }

// oracle compares with the sequential reference: the matching engine must
// reproduce its partition exactly, the ensemble must come within
// qualitySlack of its modularity.
func (d *detectInstance) oracle(last *outcome) (float64, error) {
	end := d.tr.span("seq.Detect")
	want := seq.Detect(d.g, seq.Options{MinCoverage: minCoverage})
	end()
	if d.engine != core.EngineMatching {
		return want.Modularity, atLeast(last.modularity, want.Modularity, "seq.Detect")
	}
	if last.k != want.NumCommunities {
		return want.Modularity, fmt.Errorf("%d communities, seq.Detect has %d", last.k, want.NumCommunities)
	}
	for v, c := range want.CommunityOf {
		if last.comm[v] != c {
			return want.Modularity, fmt.Errorf("vertex %d in community %d, seq.Detect puts it in %d", v, last.comm[v], c)
		}
	}
	return want.Modularity, nil
}

// churnInstance replays an update stream through an overlay, re-detecting
// incrementally after every batch.
type churnInstance struct {
	tr         *tracer
	input      []byte
	deltas     []*graph.Delta
	tamperEdge bool // test hook: corrupt one edge of the final graph before the oracle compares it

	base    *graph.Graph
	ov      *graph.Overlay
	dend    *hierarchy.Dendrogram
	scratch *core.Scratch
	applied int          // batches applied to ov
	last    *graph.Graph // ov's compacted graph after the latest batch
}

func ljChurn(e env) (instance, error) {
	g, err := ljGraph(e)
	if err != nil {
		return nil, err
	}
	deltas, err := gen.Deltas(g, gen.DeltaConfig{
		Batches: churnBatches, BatchSize: max(int(float64(g.NumEdges())*churnFrac), 1),
		DeleteFrac: 0.5, MaxWeight: 3, Hubs: int(min(churnHubs, g.NumVertices())), Seed: e.seed,
	})
	if err != nil {
		return nil, err
	}
	input, err := serialize(g)
	return &churnInstance{tr: e.tr, input: input, deltas: deltas, tamperEdge: e.tamper.edge}, err
}

// setup loads the input and bootstraps the chain with one full detection,
// as the CLI does before it replays an update stream.
func (c *churnInstance) setup(ctx context.Context) (float64, error) {
	g, secs, err := load(c.tr, c.input)
	if err != nil {
		return 0, err
	}
	end := c.tr.span("core.DetectContext")
	res, err := core.DetectContext(ctx, g, options(maxThreads, core.EngineMatching, false))
	end()
	if err != nil {
		return 0, err
	}
	dend, err := hierarchy.FromFinal(g.NumVertices(), res.CommunityOf, res.NumCommunities)
	if err != nil {
		return 0, err
	}
	c.base, c.ov, c.dend, c.scratch, c.applied, c.last = g, graph.NewOverlay(maxThreads, g), dend, core.NewScratch(), 0, g
	return secs, nil
}

func (c *churnInstance) edges() int64 { return c.base.NumEdges() }

func (c *churnInstance) batch() *graph.Delta { return c.deltas[c.applied%len(c.deltas)] }

// probe times the next batch's ApplyDelta and Compact on a shadow overlay
// over a clone of the current graph, leaving the op itself untouched.
func (c *churnInstance) probe() (apply, compact float64, err error) {
	sh := graph.NewOverlay(maxThreads, c.last.Clone())
	end := c.tr.span("graph.Overlay.ApplyDelta")
	t0 := time.Now()
	err = sh.ApplyDelta(c.batch())
	apply = time.Since(t0).Seconds()
	end()
	if err != nil {
		return 0, 0, err
	}
	end = c.tr.span("graph.Overlay.Compact")
	t0 = time.Now()
	_, err = sh.Compact()
	compact = time.Since(t0).Seconds()
	end()
	return apply, compact, err
}

func (c *churnInstance) op(ctx context.Context, threads int, traced bool) (*outcome, error) {
	opt := options(threads, core.EngineMatching, traced)
	end := c.tr.span("core.DetectIncrementalWithContext")
	ir, err := core.DetectIncrementalWithContext(ctx, c.ov, c.dend, c.batch(), opt, c.scratch)
	end()
	if err != nil {
		return nil, err
	}
	c.applied++
	c.dend, c.last = ir.Dendrogram, ir.Graph
	n := c.base.NumVertices()
	o := &outcome{
		comm: ir.CommunityOf, k: ir.NumCommunities, modularity: ir.FinalModularity, rec: opt.Recorder,
		layers: kernelLayers(ir.Stats, true, n),
	}
	o.layers.dissolvedFrac = float64(ir.DissolvedVertices) / float64(n)
	return o, nil
}

func (c *churnInstance) valid(o *outcome) error {
	return metrics.ValidatePartition(o.comm, c.base.NumVertices(), o.k)
}

func (c *churnInstance) modularity(o *outcome) (float64, error) {
	return recompute(c.tr, c.last, o), nil
}

// oracle folds every applied batch, in order, into one seq.ApplyDelta of
// the input: the overlay's final graph must equal the result edge for
// edge, and the last partition must come within qualitySlack of
// seq.Detect on it.
func (c *churnInstance) oracle(last *outcome) (float64, error) {
	all := &graph.Delta{}
	for i := 0; i < c.applied; i++ {
		all.Updates = append(all.Updates, c.deltas[i%len(c.deltas)].Updates...)
	}
	end := c.tr.span("seq.ApplyDelta")
	want, err := seq.ApplyDelta(c.base, all)
	end()
	if err != nil {
		return 0, err
	}
	got := c.last
	if c.tamperEdge {
		got = got.Clone()
		for x := range got.Start {
			if got.Start[x] < got.End[x] {
				got.W[got.Start[x]]++
				break
			}
		}
	}
	end = c.tr.span("seq.Detect")
	sq := seq.Detect(want, seq.Options{MinCoverage: minCoverage})
	end()
	if err := sameGraph(got, want); err != nil {
		return sq.Modularity, fmt.Errorf("overlay after %d batches: %w", c.applied, err)
	}
	return sq.Modularity, atLeast(last.modularity, sq.Modularity, "seq.Detect")
}

// sameGraph reports the first difference between two graphs' vertex
// counts, self-loops and edge sets.
func sameGraph(got, want *graph.Graph) error {
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		return fmt.Errorf("|V|=%d |E|=%d, want |V|=%d |E|=%d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for x := range want.Self {
		if got.Self[x] != want.Self[x] {
			return fmt.Errorf("vertex %d self-loop %d, want %d", x, got.Self[x], want.Self[x])
		}
	}
	ge, we := sortedEdges(got), sortedEdges(want)
	for i := range we {
		if ge[i] != we[i] {
			return fmt.Errorf("edge %v, want %v", ge[i], we[i])
		}
	}
	return nil
}

func sortedEdges(g *graph.Graph) []graph.Edge {
	es := g.Edges()
	for i, e := range es {
		if e.U > e.V {
			es[i].U, es[i].V = e.V, e.U
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// shardInstance streams an R-MAT graph to an mmapcsr file and detects it
// shard-parallel off the mapping, never materializing it during an op.
type shardInstance struct {
	tr   *tracer
	path string
	n    int64
	src  graphio.EdgeSource
	m    int64 // input edges, from the stream's statistics
}

func rmatOutOfCore(e env) (instance, error) {
	n, src, err := gen.StreamRMAT(gen.DefaultRMAT(e.sizes.streamScale, e.seed))
	if err != nil {
		return nil, err
	}
	return &shardInstance{tr: e.tr, path: filepath.Join(e.dir, "rmat.mmapcsr"), n: n, src: src}, nil
}

func (s *shardInstance) setup(context.Context) (float64, error) {
	defer s.tr.span("graphio.StreamMapped")()
	t0 := time.Now()
	st, err := graphio.StreamMapped(s.path, s.n, s.src, graphio.StreamOptions{})
	s.m = st.Edges
	return time.Since(t0).Seconds(), err
}

func (s *shardInstance) edges() int64 { return s.m }

func (s *shardInstance) probe() (float64, float64, error) { return 0, 0, nil }

func (s *shardInstance) op(ctx context.Context, threads int, traced bool) (*outcome, error) {
	end := s.tr.span("graphio.OpenMapped")
	t0 := time.Now()
	mp, err := graphio.OpenMapped(s.path)
	open := time.Since(t0).Seconds()
	end()
	if err != nil {
		return nil, err
	}
	defer mp.Close()
	_ = mp.Advise(graphio.AdviseRandom) // a hint; the CLI ignores its error too
	opt := options(threads, core.EngineMatching, traced)
	end = s.tr.span("core.DetectSharded")
	sr, err := core.DetectSharded(ctx, mp.CSR(), core.ShardOptions{Shards: shards, Opt: opt})
	end()
	if err != nil {
		return nil, err
	}
	o := &outcome{
		comm: sr.CommunityOf, k: sr.NumCommunities, modularity: sr.FinalModularity, rec: opt.Recorder,
		layers: kernelLayers(sr.Stitch.Stats, false, s.n),
	}
	var sum float64
	for _, st := range sr.Shards {
		sum += st.Detect.Seconds()
		o.layers.shardMax = math.Max(o.layers.shardMax, st.Detect.Seconds())
	}
	o.layers.shardMean = sum / float64(len(sr.Shards))
	o.layers.stitch = sr.Stitch.Total.Seconds()
	o.layers.cutFrac = float64(sr.CutEdges) / float64(s.m)
	o.layers.open = open
	return o, nil
}

func (s *shardInstance) valid(o *outcome) error { return metrics.ValidatePartition(o.comm, s.n, o.k) }

// materialize builds the in-memory graph of the mapped file, for the
// checks only.
func (s *shardInstance) materialize() (*graph.Graph, error) {
	defer s.tr.span("graph.FromCSR")()
	mp, err := graphio.OpenMapped(s.path)
	if err != nil {
		return nil, err
	}
	defer mp.Close()
	return graph.FromCSR(maxThreads, mp.CSR())
}

func (s *shardInstance) modularity(o *outcome) (float64, error) {
	g, err := s.materialize()
	if err != nil {
		return 0, err
	}
	return recompute(s.tr, g, o), nil
}

// oracle requires the sharded partition to come within qualitySlack of
// seq.Detect on the materialized graph.
func (s *shardInstance) oracle(last *outcome) (float64, error) {
	g, err := s.materialize()
	if err != nil {
		return 0, err
	}
	end := s.tr.span("seq.Detect")
	want := seq.Detect(g, seq.Options{MinCoverage: minCoverage})
	end()
	return want.Modularity, atLeast(last.modularity, want.Modularity, "seq.Detect")
}

func atLeast(got, ref float64, by string) error {
	if got < ref-qualitySlack {
		return fmt.Errorf("modularity %.4f, more than %.2f below %s's %.4f", got, qualitySlack, by, ref)
	}
	return nil
}
