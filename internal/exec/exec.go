// Package exec carries the execution context threaded through every kernel in
// the detection engine. Before this package each kernel signature accumulated
// positional plumbing — a worker count p, an optional *obs.Recorder, sometimes
// both forwarded through three layers — and nothing in the tree could be
// cancelled once started. Ctx bundles the three cross-cutting concerns into
// one value:
//
//   - the worker count and a persistent par.Pool worker team, so the thousands
//     of tiny loops in late contraction phases park-and-wake long-lived
//     goroutines instead of spawning fresh ones per call;
//   - the *obs.Recorder (nil when observability is off), replacing the rec
//     parameter threading;
//   - a context.Context checked at phase and kernel boundaries, so a detection
//     can be aborted by SIGINT or deadline and return its partial hierarchy.
//
// A Ctx is value-derivable: WithThreads returns a copy sharing the same pool,
// so a harness can acquire one team at the maximum width and run narrower
// sweeps on it. Like the pool it wraps, a Ctx is single-submitter: one loop
// at a time, issued from one goroutine.
package exec

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/par"
)

// Context-pool telemetry: how often detections acquire/release pooled
// contexts and how many fresh worker teams were actually spawned — the
// free-list works when acquires dwarf spawns. Exposed on /metrics/prom
// through the obs registry (obs cannot import exec back, so exec pushes
// accessors in).
var (
	ctxAcquires  atomic.Int64
	ctxReleases  atomic.Int64
	teamsSpawned atomic.Int64
)

func init() {
	obs.RegisterPromCounter("community_exec_ctx_acquires_total",
		"Pooled execution contexts handed out by exec.Acquire.", ctxAcquires.Load)
	obs.RegisterPromCounter("community_exec_ctx_releases_total",
		"Execution contexts returned by exec.Release.", ctxReleases.Load)
	obs.RegisterPromCounter("community_exec_teams_spawned_total",
		"Fresh persistent worker teams spawned (free-list misses and explicit News).", teamsSpawned.Load)
}

// Ctx is the execution context for one detection (or any kernel invocation):
// worker count, worker team, recorder, and cancellation. The zero value is not
// usable; obtain one from Background, New, or Acquire.
type Ctx struct {
	ctx     context.Context
	rec     *obs.Recorder
	pool    *par.Pool
	threads int
	// part is the engine-installed edge-balanced schedule for the current
	// hierarchy level (nil between levels); kernels consult it through
	// Balanced. immutable marks the cached Background contexts, which are
	// shared process-wide and therefore reject SetPartition.
	part      *par.Partition
	immutable bool
}

// maxBackground bounds the cached pool-less contexts handed out by Background.
const maxBackground = 8

var backgrounds [maxBackground + 1]*Ctx

func init() {
	for p := 1; p <= maxBackground; p++ {
		backgrounds[p] = &Ctx{ctx: context.Background(), threads: p, immutable: true}
	}
}

// Background returns a cached, immutable Ctx with p workers, no recorder, no
// pool (loops fall back to spawn-based goroutines), and no cancellation. It is
// the bridge for legacy entry points that predate context threading; callers
// must not mutate or Close it. p <= 0 selects par.DefaultThreads.
func Background(p int) *Ctx {
	if p <= 0 {
		p = par.DefaultThreads()
	}
	if p <= maxBackground {
		return backgrounds[p]
	}
	return &Ctx{ctx: context.Background(), threads: p, immutable: true}
}

// New builds a Ctx with its own persistent worker team when p > 1 (p <= 0
// selects par.DefaultThreads; p == 1 needs no team). A nil ctx means
// context.Background(); a nil rec disables recording. Callers should Close
// the Ctx to release the team promptly, though an abandoned team is reclaimed
// by a finalizer.
func New(ctx context.Context, p int, rec *obs.Recorder) *Ctx {
	if ctx == nil {
		ctx = context.Background()
	}
	if p <= 0 {
		p = par.DefaultThreads()
	}
	c := &Ctx{ctx: ctx, rec: rec, threads: p}
	if p > 1 {
		c.pool = par.NewPool(p)
		teamsSpawned.Add(1)
	}
	return c
}

// freeCtxs is a small free-list of pooled contexts so the Acquire/Release pair
// on the Detect hot path is allocation-free in the steady state: the worker
// team survives between detections parked on its channels.
var (
	freeMu   sync.Mutex
	freeCtxs []*Ctx
)

const maxFree = 4

// Acquire returns a Ctx backed by a persistent worker team, reusing a
// released one when available (growing its team if p asks for more workers
// than it has). Pair with Release. Semantics of ctx, p, and rec match New.
func Acquire(ctx context.Context, p int, rec *obs.Recorder) *Ctx {
	ctxAcquires.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	if p <= 0 {
		p = par.DefaultThreads()
	}
	if p == 1 {
		// No team needed; reuse the free-list anyway so Release has one
		// uniform contract.
		freeMu.Lock()
		if n := len(freeCtxs); n > 0 {
			c := freeCtxs[n-1]
			freeCtxs[n-1] = nil
			freeCtxs = freeCtxs[:n-1]
			freeMu.Unlock()
			c.ctx, c.rec, c.threads = ctx, rec, p
			return c
		}
		freeMu.Unlock()
		return &Ctx{ctx: ctx, rec: rec, threads: p}
	}
	freeMu.Lock()
	if n := len(freeCtxs); n > 0 {
		c := freeCtxs[n-1]
		freeCtxs[n-1] = nil
		freeCtxs = freeCtxs[:n-1]
		freeMu.Unlock()
		c.ctx, c.rec, c.threads = ctx, rec, p
		if c.pool == nil {
			c.pool = par.NewPool(p)
			teamsSpawned.Add(1)
		} else {
			c.pool.Grow(p)
		}
		return c
	}
	freeMu.Unlock()
	return New(ctx, p, rec)
}

// Release returns an Acquired Ctx (and its worker team) to the free-list for
// the next Acquire. The Ctx must not be used afterwards. Contexts beyond the
// free-list's capacity are closed instead.
func (c *Ctx) Release() {
	if c == nil {
		return
	}
	ctxReleases.Add(1)
	c.ctx = nil
	c.rec = nil
	c.part = nil
	freeMu.Lock()
	if len(freeCtxs) < maxFree {
		freeCtxs = append(freeCtxs, c)
		freeMu.Unlock()
		return
	}
	freeMu.Unlock()
	c.Close()
}

// Close releases the worker team. Only contexts from New (or Acquire, when
// bypassing Release) need closing; Background contexts have no team.
func (c *Ctx) Close() {
	if c == nil {
		return
	}
	c.pool.Close()
	c.pool = nil
}

// WithThreads returns a copy of c running loops with t workers (t <= 0 selects
// par.DefaultThreads), sharing c's team, recorder, and context. The team grows
// if t exceeds its capacity. The copy and c must not submit loops
// concurrently — they share one team.
func (c *Ctx) WithThreads(t int) *Ctx {
	if t <= 0 {
		t = par.DefaultThreads()
	}
	d := *c
	d.threads = t
	d.immutable = false
	if d.pool != nil {
		d.pool.Grow(t)
	} else if t > 1 {
		d.pool = par.NewPool(t)
		teamsSpawned.Add(1)
	}
	return &d
}

// Threads is the worker count kernels should pass to their loops.
func (c *Ctx) Threads() int { return c.threads }

// Recorder is the observability sink, nil when recording is off.
func (c *Ctx) Recorder() *obs.Recorder { return c.rec }

// Context is the cancellation context; never nil.
func (c *Ctx) Context() context.Context {
	if c.ctx == nil {
		return context.Background()
	}
	return c.ctx
}

// Err reports the context's cancellation state without allocating; kernels
// check it at iteration boundaries.
func (c *Ctx) Err() error {
	if c.ctx == nil {
		return nil
	}
	return c.ctx.Err()
}

// Serial reports whether a loop over n items should run inline on the caller:
// one worker, or a problem too small to split. Kernels use it to keep their
// closure-free serial fast paths.
func (c *Ctx) Serial(n int) bool { return par.Serial(c.threads, n) }

// Workers is the worker count a striped loop over n items will use.
func (c *Ctx) Workers(n int) int { return par.Workers(c.threads, n) }

// For runs body over [0, n) in static contiguous chunks on the team.
func (c *Ctx) For(n int, body func(lo, hi int)) { c.pool.For(c.threads, n, body) }

// ForDynamic runs body over [0, n) with grain-sized chunks claimed from a
// shared cursor; grain <= 0 selects the default heuristic.
func (c *Ctx) ForDynamic(n, grain int, body func(lo, hi int)) {
	c.pool.ForDynamic(c.threads, n, grain, body)
}

// ForWorker runs body over [0, n) in static chunks, passing the worker index;
// it reports the worker count used.
func (c *Ctx) ForWorker(n int, body func(worker, lo, hi int)) int {
	return c.pool.ForWorker(c.threads, n, body)
}

// ForWorkerTimes is ForWorker plus per-worker busy-nanosecond accumulation
// into times.
func (c *Ctx) ForWorkerTimes(n int, times []int64, body func(worker, lo, hi int)) int {
	return c.pool.ForWorkerTimes(c.threads, n, times, body)
}

// ZeroInt64 clears xs on the team.
func (c *Ctx) ZeroInt64(xs []int64) { c.pool.ZeroInt64(c.threads, xs) }

// CopyInt64 copies src into dst (at least as long) on the team; a serial
// copy creates no closure, so it allocates nothing.
func (c *Ctx) CopyInt64(dst, src []int64) {
	if c.Serial(len(src)) {
		copy(dst, src)
		return
	}
	c.For(len(src), func(lo, hi int) {
		copy(dst[lo:hi], src[lo:hi])
	})
}

// MergeStripes column-sums the workers×k stripe matrix into dst on the team.
func (c *Ctx) MergeStripes(stripes []int64, workers, k int, dst []int64) {
	c.pool.MergeStripes(c.threads, stripes, workers, k, dst)
}

// StripeOffsets turns merged counts into per-worker scatter offsets.
func (c *Ctx) StripeOffsets(stripes []int64, workers, k int, totals []int64) {
	c.pool.StripeOffsets(c.threads, stripes, workers, k, totals)
}

// StripeCursors adds each bucket's base to every worker's scatter offset.
func (c *Ctx) StripeCursors(stripes []int64, workers, k int, bases []int64) {
	c.pool.StripeCursors(c.threads, stripes, workers, k, bases)
}

// ExclusiveSumInt64 scans xs in place, returning the total.
func (c *Ctx) ExclusiveSumInt64(xs []int64) int64 {
	return c.pool.ExclusiveSumInt64(c.threads, xs)
}

// SumInt64 reduces xs on the team.
func (c *Ctx) SumInt64(xs []int64) int64 { return c.pool.SumInt64(c.threads, xs) }

// PackIndexInto compacts the indices whose keep flag is nonzero, reusing slots
// and dst as scratch.
func (c *Ctx) PackIndexInto(n int, keep, slots, dst []int64) []int64 {
	return c.pool.PackIndexInto(c.threads, n, keep, slots, dst)
}

// PackInto compacts src's kept elements into dst (generic, so a free function
// rather than a method).
func PackInto[T any](c *Ctx, src []T, keep, slots []int64, dst []T) []T {
	return par.PackIntoWith(c.pool, c.threads, src, keep, slots, dst)
}

// SetPartition installs pt as the edge-balanced schedule kernels may adopt
// through Balanced, or clears it with nil. The engine calls it once per
// hierarchy level; pt must stay valid (and unmodified) until cleared. The
// cached Background contexts are shared process-wide, so on them
// SetPartition is a no-op and kernels keep their dynamic fallback.
func (c *Ctx) SetPartition(pt *par.Partition) {
	if c.immutable {
		return
	}
	c.part = pt
}

// Partition returns the installed level partition, nil when absent.
func (c *Ctx) Partition() *par.Partition { return c.part }

// Balanced returns the installed partition when it matches a sweep over n
// bucketed items carrying `edges` total edges and was built for a parallel
// worker count; otherwise nil and the caller should fall back to dynamic
// scheduling. The weight check (edges plus one unit per item) rejects
// partitions built for a different level or graph, so a stale install can
// never misdirect a sweep.
func (c *Ctx) Balanced(n int, edges int64) *par.Partition {
	pt := c.part
	if pt == nil || pt.Workers() < 2 || pt.Items() != n ||
		pt.TotalWeight() != edges+int64(n) {
		return nil
	}
	return pt
}

// BuildBuckets (re)builds pt as the edge-balanced schedule for n buckets
// with edge runs start[x]..end[x], on the team.
func (c *Ctx) BuildBuckets(pt *par.Partition, n int, start, end []int64) {
	pt.BuildBuckets(c.pool, c.threads, n, start, end)
}

// BuildIndexed (re)builds pt over an index list, item i weighing
// end[list[i]]-start[list[i]]+1, on the team. Only item-aligned ranges are
// produced.
func (c *Ctx) BuildIndexed(pt *par.Partition, list, start, end []int64) {
	pt.BuildIndexed(c.pool, c.threads, list, start, end)
}

// BuildWeights (re)builds pt over n items with the given extra weights (each
// item costs weight[x]+1), on the team. Only item-aligned ranges are
// produced.
func (c *Ctx) BuildWeights(pt *par.Partition, n int, weight []int64) {
	pt.BuildWeights(c.pool, c.threads, n, weight)
}

// ForRanges runs body once per non-empty item-aligned range of pt,
// distributing the ranges over the team and folding per-worker busy times
// into the recorder under region. It is the static-balanced counterpart of
// ForDynamic for kernels that must not split an item between workers.
func (c *Ctx) ForRanges(region string, pt *par.Partition, body func(lo, hi int)) {
	w := pt.Workers()
	times := c.rec.WorkerTimes(w)
	c.pool.ForWorkerTimes(c.threads, w, times, func(_, jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			lo, hi := pt.Range(j)
			if lo < hi {
				body(lo, hi)
			}
		}
	})
	c.rec.FoldWorkerTimes(region, times)
}

// ForSpans runs body once per non-empty edge-exact span of pt, distributing
// the spans over the team and folding per-worker busy times into the
// recorder under region. body receives the span's index j in [0,
// pt.Workers()) — stable across sweeps over the same partition, so striped
// kernels (contraction's count/scatter replay) can key private state by it
// — and the span itself. Spans may cover partial buckets at their ends, so
// only edge-parallel sweeps that tolerate hub splitting may use it.
func (c *Ctx) ForSpans(region string, pt *par.Partition, body func(j int, sp par.Span)) {
	w := pt.Workers()
	times := c.rec.WorkerTimes(w)
	c.pool.ForWorkerTimes(c.threads, w, times, func(_, jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			sp := pt.Span(j)
			if sp.LoV < sp.HiV {
				body(j, sp)
			}
		}
	})
	c.rec.FoldWorkerTimes(region, times)
}
