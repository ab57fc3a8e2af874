package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"
)

// maxThreads is the thread budget of every op but the 1-thread reps: the
// two cores of the reference host.
const maxThreads = 2

// benchSizes are the inputs the benchmark runs; the smoke test uses tiny
// ones.
var benchSizes = sizes{rmatScale: 15, ljVertices: 60_000, streamScale: 16}

// minReps is the fewest 2-thread ops a run measures, however short
// -seconds is; a traced run measures at least as many traced ops too.
const minReps = 3

// instance is one workload's generated input and the system state its ops
// run on. Only system.go implements it.
type instance interface {
	// setup brings the system up from the generated input and returns the
	// time spent loading it; a run sets up several times and keeps the
	// last state.
	setup(ctx context.Context) (load float64, err error)
	// edges is the input's edge count, the numerator of edges_per_s.
	edges() int64
	// probe takes the layer timings that must not run inside an op (the
	// churn workload's shadow overlay); it runs before each op of a traced
	// run.
	probe() (apply, compact float64, err error)
	op(ctx context.Context, threads int, traced bool) (*outcome, error)
	valid(o *outcome) error
	// modularity recomputes o's modularity from the graph it partitions.
	modularity(o *outcome) (float64, error)
	// oracle compares the last op's outcome with a reference run on the
	// same graph and returns the reference's modularity.
	oracle(last *outcome) (float64, error)
}

// workload is one set of inputs and the op run on them. The reasons for
// each are in README.md and BENCHMARK.json.
type workload struct {
	name string
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps int
	// fixedInput marks workloads whose ops all see the same input, so
	// every op must return the first op's partition.
	fixedInput bool
	make       func(env) (instance, error)
}

var workloads = []workload{
	{"rmat-agglom", 15, true, rmatAgglom},
	{"lj-agglom", 15, true, ljAgglom},
	{"lj-ensemble", 15, true, ljEnsemble},
	{"lj-churn", 3, false, ljChurn},
	{"rmat-outofcore", 3, true, rmatOutOfCore},
}

// env is what a workload's constructor needs.
type env struct {
	seed   uint64
	sizes  sizes
	dir    string // scratch directory for the files a workload writes
	tamper tamper
	tr     *tracer
}

// tamper corrupts outputs on purpose, so tests can prove each check fails.
type tamper struct {
	partition  bool // move the first timed op's vertex 0 out of range
	modularity bool // misreport the first timed op's modularity
	edge       bool // change one edge of the churn workload's final graph
}

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	sizes    sizes
	minReps  int
	dir      string
	tamper   tamper
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in output order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"edges_per_s", "edges/s"},
	{"speedup_2t", "x"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run, in output order. A layer a
// workload does not run reports 0, so only layers every workload runs are
// reported as times.
var perLayer = []metricDef{
	{"scoring.share", "fraction"},
	{"matching.share", "fraction"},
	{"matching.passes", "count"},
	{"matching.pairs", "count"},
	{"matching.merge_frac", "fraction"},
	{"contract.s", "s"},
	{"contract.share", "fraction"},
	{"plp.share", "fraction"},
	{"plp.sweeps", "count"},
	{"core.modularity", "1"},
	{"core.modularity_ratio", "x"},
	{"core.levels", "count"},
	{"core.tail_share", "fraction"},
	{"core.other_s", "s"},
	{"shard.share", "fraction"},
	{"shard.imbalance", "x"},
	{"shard.cut_frac", "fraction"},
	{"stitch.share", "fraction"},
	{"graphio.load_s", "s"},
	{"graphio.open_share", "fraction"},
	{"graph.apply_share", "fraction"},
	{"graph.compact_share", "fraction"},
	{"incremental.dissolved_frac", "fraction"},
	{"matching.visits", "count"},
	{"matching.conflicts", "count"},
	{"matching.claim_frac", "fraction"},
	{"contract.edges_in", "count"},
	{"contract.edges_out", "count"},
	{"contract.dedup_frac", "fraction"},
	{"contract.sort_s", "s"},
	{"par.imbalance", "x"},
	{"obs.overhead_pct", "%"},
	{"alloc_mb_per_op", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// samples counts what a run measured.
type samples struct {
	Setup  int `json:"setup"`
	Warmup int `json:"warmup"`
	Ops2T  int `json:"ops_2t"`
	Ops1T  int `json:"ops_1t"`
	Traced int `json:"traced"`
}

type runResult struct {
	result
	samples samples
	edges   int64
	op2T    []float64 // seconds of the checked untraced 2-thread ops
	op1T    []float64 // seconds of the checked 1-thread ops
	// speedups has one ratio per 2,1,2 triplet whose ops all passed: the
	// 1-thread op's seconds over the mean of its two 2-thread neighbours.
	speedups []float64
	errs     []string
	spans    []span
}

// sample is what a checked, measured op leaves for the metrics.
type sample struct {
	wall  float64
	alloc float64 // bytes
	l     layers
	c     counters
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// exitCode is the process status for a finished run: non-zero when any
// check failed.
func exitCode(r *runResult) int {
	if r.Correct {
		return 0
	}
	return 1
}

type runner struct {
	cfg  config
	w    workload
	inst instance
	tr   *tracer
	out  runResult

	haveFirst bool
	firstHash uint64
	firstMod  float64
	last      *outcome // the latest checked outcome
}

// run generates the workload's inputs from the seed, sets up, warms up,
// measures closed-loop ops for cfg.seconds, checks every op and the
// oracle, and returns the metrics of the run's mode.
func run(ctx context.Context, cfg config) (*runResult, error) {
	w, ok := lookup(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(maxThreads))
	r := &runner{cfg: cfg, w: w, tr: newTracer()}
	inst, err := w.make(env{seed: cfg.seed, sizes: cfg.sizes, dir: cfg.dir, tamper: cfg.tamper, tr: r.tr})
	if err != nil {
		return nil, fmt.Errorf("generating %s inputs: %w", w.name, err)
	}
	r.inst = inst
	return r.run(ctx)
}

func (r *runner) run(ctx context.Context) (*runResult, error) {
	var setupS, loadS []float64
	for i := 0; i < r.w.setupReps; i++ {
		runtime.GC()
		end := r.tr.span("setup")
		t0 := time.Now()
		load, err := r.inst.setup(ctx)
		setupS = append(setupS, time.Since(t0).Seconds())
		end()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		loadS = append(loadS, load)
	}
	r.out.samples.Setup = len(setupS)
	r.out.edges = r.inst.edges()

	warm := []int{maxThreads, 1}
	if r.cfg.trace {
		warm = warm[:1]
	}
	for _, threads := range warm {
		if o, _, _ := r.do(ctx, threads, false); o != nil {
			r.accept(o)
		}
		r.out.samples.Warmup++
	}

	var plain, traced []sample
	var liveHeap float64
	var trio [3]float64 // walls of the current 2,1,2 triplet
	trioOK := false     // whether every op of that triplet passed
	r.last = nil        // so the live heap holds one op's result, not two
	start := time.Now()
	for i := 0; i%period(r.cfg.trace) != 0 || r.more(start); i++ {
		threads, tr := slot(i, r.cfg.trace)
		switch {
		case tr:
			r.out.samples.Traced++
		case threads == 1:
			r.out.samples.Ops1T++
		default:
			r.out.samples.Ops2T++
		}
		var apply, compact float64
		if r.cfg.trace {
			var err error
			if apply, compact, err = r.inst.probe(); err != nil {
				return nil, fmt.Errorf("shadow update: %w", err)
			}
		}
		o, wall, alloc := r.do(ctx, threads, tr)
		if o != nil && i == 0 {
			if !r.cfg.trace {
				liveHeap = heapAfterGC()
				runtime.KeepAlive(o)
			}
			if r.cfg.tamper.partition {
				o.comm[0] = o.k
			}
			if r.cfg.tamper.modularity {
				o.modularity += 0.01
			}
		}
		ok := o != nil && r.accept(o)
		if !r.cfg.trace {
			trio[i%3], trioOK = wall, ok && (trioOK || i%3 == 0)
			if i%3 == 2 && trioOK {
				r.out.speedups = append(r.out.speedups, trio[1]/((trio[0]+trio[2])/2))
			}
		}
		if !ok {
			continue
		}
		o.layers.apply, o.layers.compact = apply, compact
		switch {
		case tr:
			traced = append(traced, sample{wall: wall, l: o.layers, c: o.counters()})
		case threads == 1:
			r.out.op1T = append(r.out.op1T, wall)
		default:
			plain = append(plain, sample{wall: wall, alloc: alloc, l: o.layers})
			r.out.op2T = append(r.out.op2T, wall)
		}
	}

	var ref float64
	if r.last != nil {
		end := r.tr.span("oracle")
		var err error
		ref, err = r.inst.oracle(r.last)
		end()
		if err != nil {
			r.fail(fmt.Errorf("oracle: %w", err))
		}
	}
	r.out.Correct = r.out.Failed == 0
	r.out.spans = r.tr.spans

	var q float64
	if r.last != nil {
		q = r.last.modularity
	}
	if r.cfg.trace {
		r.out.Metrics = declare(perLayer, layerValues(plain, traced, loadS, q, ref))
	} else {
		r.out.Metrics = declare(endToEnd, map[string]float64{
			"setup_s":      median(setupS),
			"edges_per_s":  ratio(float64(r.out.edges), median(r.out.op2T)),
			"speedup_2t":   median(r.out.speedups),
			"live_heap_mb": liveHeap / 1e6,
		})
	}
	return &r.out, nil
}

// more reports whether the measured loop goes on: until cfg.seconds have
// passed and each kind of op has its minimum count, failed ops included.
// The loop asks only at the start of a schedule period.
func (r *runner) more(start time.Time) bool {
	s := r.out.samples
	short := s.Ops1T < (r.cfg.minReps+1)/2
	if r.cfg.trace {
		short = s.Traced < r.cfg.minReps
	}
	return short || s.Ops2T < r.cfg.minReps || time.Since(start) < r.cfg.seconds
}

// do runs one op on a thread budget of both Options.Threads and
// GOMAXPROCS, after a forced GC so every op starts from the same heap. It
// returns the outcome (nil when the op failed), its wall seconds and the
// bytes it allocated.
func (r *runner) do(ctx context.Context, threads int, traced bool) (*outcome, float64, float64) {
	prev := runtime.GOMAXPROCS(threads)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.tr.op = r.out.Attempted
	end := r.tr.span("op")
	t0 := time.Now()
	o, err := r.inst.op(ctx, threads, traced)
	wall := time.Since(t0).Seconds()
	end()
	r.tr.op = -1
	runtime.ReadMemStats(&after)
	runtime.GOMAXPROCS(prev)
	r.out.Attempted++
	if err != nil {
		r.fail(fmt.Errorf("op at %d threads: %w", threads, err))
		return nil, wall, 0
	}
	return o, wall, float64(after.TotalAlloc - before.TotalAlloc)
}

// accept checks o, counting a failure when a check does not hold.
func (r *runner) accept(o *outcome) bool {
	end := r.tr.span("check")
	err := r.check(o)
	end()
	if err != nil {
		r.fail(err)
		return false
	}
	r.last = o
	return true
}

// check requires a valid partition and a reported modularity equal to the
// recomputed one. On a fixed input every op must also return the first
// op's partition, so its modularity is recomputed once and later ops must
// report the same value.
func (r *runner) check(o *outcome) error {
	if err := r.inst.valid(o); err != nil {
		return err
	}
	if r.w.fixedInput && r.haveFirst {
		if h := partitionHash(o.comm, o.k); h != r.firstHash {
			return fmt.Errorf("partition hash %016x differs from the first op's %016x", h, r.firstHash)
		}
		return sameModularity(o.modularity, r.firstMod)
	}
	q, err := r.inst.modularity(o)
	if err != nil {
		return err
	}
	if err := sameModularity(o.modularity, q); err != nil {
		return err
	}
	if r.w.fixedInput {
		r.haveFirst, r.firstHash, r.firstMod = true, partitionHash(o.comm, o.k), q
	}
	return nil
}

func sameModularity(reported, want float64) error {
	if math.Abs(reported-want) > 1e-9 {
		return fmt.Errorf("reported modularity %.12f, recomputed %.12f", reported, want)
	}
	return nil
}

func partitionHash(comm []int64, k int64) uint64 {
	b := make([]byte, 0, 8*(len(comm)+1))
	for _, c := range comm {
		b = binary.LittleEndian.AppendUint64(b, uint64(c))
	}
	h := fnv.New64a()
	h.Write(binary.LittleEndian.AppendUint64(b, uint64(k)))
	return h.Sum64()
}

func (r *runner) fail(err error) {
	r.out.Failed++
	if len(r.out.errs) < 10 {
		r.out.errs = append(r.out.errs, err.Error())
	}
}

// heapAfterGC is the live heap: HeapAlloc right after a forced GC.
func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// layerValues computes the per-layer metrics: time splits and work counts
// as medians over the untraced ops, engine counters as medians over the
// traced ops. Each op's wall splits into scoring + matching + contract +
// plp + the slowest shard + core.other_s, so the shares and other_s add up
// to the op by construction.
func layerValues(plain, traced []sample, loadS []float64, q, ref float64) map[string]float64 {
	over := func(ss []sample, f func(sample) float64) float64 {
		xs := make([]float64, len(ss))
		for i, s := range ss {
			xs[i] = f(s)
		}
		return median(xs)
	}
	p := func(f func(sample) float64) float64 { return over(plain, f) }
	t := func(f func(sample) float64) float64 { return over(traced, f) }
	share := func(f func(layers) float64) float64 {
		return p(func(s sample) float64 { return ratio(f(s.l), s.wall) })
	}
	other := func(s sample) float64 {
		l := s.l
		return s.wall - l.scoring - l.matching - l.contract - l.plp - l.shardMax
	}
	wall := func(s sample) float64 { return s.wall }
	return map[string]float64{
		"scoring.share":              share(func(l layers) float64 { return l.scoring }),
		"matching.share":             share(func(l layers) float64 { return l.matching }),
		"matching.passes":            p(func(s sample) float64 { return float64(s.l.passes) }),
		"matching.pairs":             p(func(s sample) float64 { return float64(s.l.pairs) }),
		"matching.merge_frac":        p(func(s sample) float64 { return ratio(2*float64(s.l.pairs), float64(s.l.levelVertices)) }),
		"contract.s":                 p(func(s sample) float64 { return s.l.contract }),
		"contract.share":             share(func(l layers) float64 { return l.contract }),
		"plp.share":                  share(func(l layers) float64 { return l.plp }),
		"plp.sweeps":                 p(func(s sample) float64 { return float64(s.l.plpSweeps) }),
		"core.modularity":            q,
		"core.modularity_ratio":      ratio(q, ref),
		"core.levels":                p(func(s sample) float64 { return float64(s.l.levels) }),
		"core.tail_share":            share(func(l layers) float64 { return l.tail }),
		"core.other_s":               p(other),
		"shard.share":                share(func(l layers) float64 { return l.shardMax }),
		"shard.imbalance":            p(func(s sample) float64 { return ratio(s.l.shardMax, s.l.shardMean) }),
		"shard.cut_frac":             p(func(s sample) float64 { return s.l.cutFrac }),
		"stitch.share":               share(func(l layers) float64 { return l.stitch }),
		"graphio.load_s":             median(loadS),
		"graphio.open_share":         share(func(l layers) float64 { return l.open }),
		"graph.apply_share":          share(func(l layers) float64 { return l.apply }),
		"graph.compact_share":        share(func(l layers) float64 { return l.compact }),
		"incremental.dissolved_frac": p(func(s sample) float64 { return s.l.dissolvedFrac }),
		"matching.visits":            t(func(s sample) float64 { return float64(s.c.visits) }),
		"matching.conflicts":         t(func(s sample) float64 { return float64(s.c.conflicts) }),
		"matching.claim_frac":        t(func(s sample) float64 { return ratio(float64(s.c.claims), float64(s.c.visits)) }),
		"contract.edges_in":          t(func(s sample) float64 { return float64(s.c.edgesIn) }),
		"contract.edges_out":         t(func(s sample) float64 { return float64(s.c.edgesOut) }),
		"contract.dedup_frac":        t(func(s sample) float64 { return ratio(float64(s.c.survived-s.c.edgesOut), float64(s.c.survived)) }),
		"contract.sort_s":            t(func(s sample) float64 { return s.c.sortS }),
		"par.imbalance":              t(func(s sample) float64 { return s.c.imbalance }),
		"obs.overhead_pct":           100 * (ratio(over(traced, wall), over(plain, wall)) - 1),
		"alloc_mb_per_op":            p(func(s sample) float64 { return s.alloc / 1e6 }),
	}
}

// declare attaches each value's declared unit. A value defs does not name,
// or a name without a value, is a bug in this package.
func declare(defs []metricDef, values map[string]float64) map[string]metric {
	if len(values) != len(defs) {
		panic(fmt.Sprintf("perf: %d metric values for %d declared metrics", len(values), len(defs)))
	}
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("perf: no value for declared metric " + d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out
}
