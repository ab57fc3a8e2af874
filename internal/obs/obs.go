// Package obs is the kernel-level instrumentation layer for the detection
// engine. The paper's evaluation (§IV–V) is built on knowing where time goes
// inside the agglomerative loop — scoring, matching rounds, and bucket-sort
// contraction behave very differently across platforms — and this package
// gives the Go reproduction the same visibility: span timelines per phase
// and kernel, counters fed by the hot loops, bucket-occupancy histograms,
// per-region worker imbalance, and pprof labels that segment CPU profiles by
// pipeline stage. Every timed stage is one row of the stage table
// (stage.go), opened with Begin and timed once by its span.
//
// The central type is Recorder. A nil *Recorder is the disabled recorder:
// every method is a nil-check no-op (a predictable branch, no interface
// dispatch, no allocation), so the engine threads one pointer through the
// hot layers and pays nothing when observability is off — verified by the
// package's alloc/overhead benchmarks. Hot loops never call the recorder per
// event; they accumulate into worker-private stripes or chunk-local counters
// and flush at region boundaries (see Hot and WorkerTimes), mirroring the
// (*par.Pool).MergeStripes discipline the contraction kernel uses for its
// histograms.
//
// Three sinks consume a Recorder: the run manifest (internal/report), which
// archives its kernel seconds, latency classes and heap footprint;
// WriteTrace (Chrome trace_event JSON for chrome://tracing or Perfetto); and
// the live /metrics/prom exposition served by Serve (serve.go). Export
// snapshots everything recorded, counters, regions and spans included, for
// in-process readers such as cmd/bench -phases.
package obs

import (
	"context"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter identifies one of the fixed engine counters. The set is closed so
// hot loops can address counters by array index instead of hashing names.
type Counter int

const (
	// CtrMatchRounds counts matching passes (worklist or edge-sweep rounds).
	CtrMatchRounds Counter = iota
	// CtrMatchActive sums the worklist length over all passes: total vertex
	// visits the matching performed.
	CtrMatchActive
	// CtrMatchRequeued counts rematch attempts: vertices whose claim failed
	// but that stayed on the worklist for another pass.
	CtrMatchRequeued
	// CtrMatchClaims counts successful pair claims.
	CtrMatchClaims
	// CtrMatchConflicts counts claims lost to a concurrent claim — the
	// lock-protected analogue of a CAS retry. Only the edge-sweep ablation
	// claims under locks; the worklist kernel's claims are lock-free
	// mutual-candidate checks that cannot lose, so it always reports 0.
	CtrMatchConflicts
	// CtrScoreMasked counts edges masked by the MaxCommunitySize cap during
	// the scoring sweep.
	CtrScoreMasked
	// CtrContractEdgesIn counts edges entering contraction.
	CtrContractEdgesIn
	// CtrContractSurvived counts cross edges surviving collapse (before
	// in-bucket deduplication).
	CtrContractSurvived
	// CtrContractEdgesOut counts edges in the contracted graph (after
	// deduplication).
	CtrContractEdgesOut
	// CtrContractSortNS times the dedup step of the bucket kernel
	// (nanoseconds): the linear merge that folds duplicate neighbors, one
	// clock pair per dedup range. The name predates the merge, when the step
	// sorted each bucket; it is kept because consumers read it by name.
	CtrContractSortNS

	// NumCounters is the size of a counter block.
	NumCounters
)

var counterNames = [NumCounters]string{
	"match_rounds",
	"match_worklist_visits",
	"match_rematch_attempts",
	"match_claims",
	"match_claim_conflicts",
	"score_masked_edges",
	"contract_edges_in",
	"contract_edges_survived",
	"contract_edges_out",
	"contract_sort_ns",
}

// String returns the counter's stable export name.
func (c Counter) String() string {
	if c >= 0 && c < NumCounters {
		return counterNames[c]
	}
	return "unknown_counter"
}

// Hot is a counter block hot loops flush into at chunk granularity: a
// parallel loop body counts into function-local variables and performs one
// atomic add per chunk, never per event. The engine folds the block into the
// recorder's totals at region boundaries (FoldHot).
type Hot struct {
	v [NumCounters]int64
}

// Add atomically accumulates d into counter c. Call once per chunk, with a
// locally accumulated delta — not per event.
func (h *Hot) Add(c Counter, d int64) {
	if h == nil || d == 0 {
		return
	}
	atomic.AddInt64(&h.v[c], d)
}

// span is one timeline interval of stage k. Times are nanoseconds since the
// recorder's epoch; k1/v1 and k2/v2 are optional static-name numeric
// arguments.
type span struct {
	k          Kernel
	phase      int32
	start, dur int64
	k1, k2     string
	v1, v2     int64
}

// regionStats aggregates the per-worker busy times of one named parallel
// region across calls (FoldWorkerTimes).
type regionStats struct {
	calls   int64
	workers int
	busyNS  int64
	maxNS   int64
}

// Recorder collects one run's (or one sweep's) observability data. The zero
// value is NOT ready: use New. A nil *Recorder is the disabled recorder —
// every method no-ops. A Recorder must not be shared by concurrent detection
// runs; the live HTTP endpoint may read it concurrently with a run (all
// shared state is mutex-guarded or flushed at region boundaries).
type Recorder struct {
	t0 int64 // NowNS epoch of the span times

	mu      sync.Mutex
	spans   []span
	ctr     [NumCounters]int64
	hist    [histBins]int64 // log2 bucket-occupancy histogram
	regions map[string]*regionStats
	phase   int32 // current phase, for live snapshots
	phases  int32 // phases started
	// labels caches each labeled stage's pprof label context.
	labels [numKernels]context.Context

	// hot is the chunk-flush block handed to hot loops; folded into ctr at
	// region boundaries by the engine goroutine.
	hot Hot
	// times is the worker-time scratch reused across regions.
	times []int64
	// lat holds the per-class latency histograms (atomic buckets, not under
	// mu — observation must stay lock-free).
	lat LatencySet
	// allocBase* hold the cumulative heap counters sampled by BeginAllocs;
	// EndAllocs folds the deltas into allocBytes/allocCount (under mu). The
	// run-scoped allocation footprint feeds the manifest and the doctor's
	// alloc drift metric.
	allocBaseBytes uint64
	allocBaseCount uint64
	allocOpen      bool
	allocBytes     int64
	allocCount     int64
	// flight, when set, receives a copy of every closed span — the black-box
	// ring the crash paths dump. Set once before the run starts (SetFlight);
	// read without synchronization on the span-close path.
	flight *FlightRecorder
}

// histBins: bin b holds buckets whose length has bit-length b (bin 0 = empty
// buckets, bin 1 = length 1, bin 2 = 2–3, ...); the last bin is an overflow.
const histBins = 20

// New returns an enabled recorder.
func New() *Recorder {
	return &Recorder{t0: NowNS()}
}

// Enabled reports whether r records anything; false for the nil recorder.
func (r *Recorder) Enabled() bool { return r != nil }

// Reset clears all recorded data, keeping buffer capacity, and restarts the
// epoch. For reusing one recorder across harness sweep runs.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.ctr = [NumCounters]int64{}
	r.hist = [histBins]int64{}
	r.regions = nil
	r.phase, r.phases = 0, 0
	r.allocBytes, r.allocCount, r.allocOpen = 0, 0, false
	for i := range r.hot.v {
		atomic.StoreInt64(&r.hot.v[i], 0)
	}
	r.t0 = NowNS()
	r.mu.Unlock()
	r.lat.Reset()
}

func (r *Recorder) since() int64 { return NowNS() - r.t0 }

// Phases reports the number of phases started so far.
func (r *Recorder) Phases() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.phases)
}

// SetFlight attaches a flight recorder: every span closed from now on is
// mirrored into the ring. Set before the run starts (the pointer is read
// unsynchronized on the span-close path); pass nil to detach.
func (r *Recorder) SetFlight(f *FlightRecorder) {
	if r == nil {
		return
	}
	r.flight = f
}

// AllocStats is a run's heap-allocation footprint: bytes allocated and
// allocation count between BeginAllocs and EndAllocs, accumulated across
// runs on one recorder.
type AllocStats struct {
	Bytes int64 `json:"bytes"`
	Count int64 `json:"count"`
}

// BeginAllocs samples the cumulative heap counters at the start of a run.
// ReadMemStats stops the world, so this runs exactly once per detection (and
// only when recording is on), never inside kernels. Nil-safe.
func (r *Recorder) BeginAllocs() {
	if r == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mu.Lock()
	r.allocBaseBytes, r.allocBaseCount, r.allocOpen = ms.TotalAlloc, ms.Mallocs, true
	r.mu.Unlock()
}

// EndAllocs folds the allocation delta since BeginAllocs into the recorder;
// a second EndAllocs (or one without a BeginAllocs) is a no-op.
func (r *Recorder) EndAllocs() {
	if r == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mu.Lock()
	if r.allocOpen {
		r.allocBytes += int64(ms.TotalAlloc - r.allocBaseBytes)
		r.allocCount += int64(ms.Mallocs - r.allocBaseCount)
		r.allocOpen = false
	}
	r.mu.Unlock()
}

// Allocs returns the accumulated run-scoped allocation footprint.
func (r *Recorder) Allocs() AllocStats {
	if r == nil {
		return AllocStats{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return AllocStats{Bytes: r.allocBytes, Count: r.allocCount}
}

// ObserveLatency records one duration (ns) under stage k's latency class.
// Lock-free and nil-safe. Only the span-less classes (KernelDetect,
// KernelLevel) are observed this way; a span observes its own class on End.
func (r *Recorder) ObserveLatency(k Kernel, ns int64) {
	if r == nil {
		return
	}
	r.lat.Observe(k, ns)
}

// Latencies snapshots the non-empty latency classes.
func (r *Recorder) Latencies() []LatencyProfile {
	if r == nil {
		return nil
	}
	return r.lat.Export()
}

// Span is a handle to an open stage interval. The nil recorder's Span still
// carries its start time, so End returns the stage's duration either way.
type Span struct {
	r        *Recorder
	idx      int32
	k        Kernel
	noSample bool
	start    int64 // NowNS at Begin
}

// Begin opens stage k's span under the recorder's current phase (set by
// BeginPhase) and, for a labeled stage, sets the goroutine's {kernel: name}
// pprof label — par workers spawned inside the stage inherit it, so CPU
// profiles segment by pipeline stage. The clock is read once here and once
// at End.
func (r *Recorder) Begin(k Kernel) Span {
	now := NowNS()
	if r == nil {
		return Span{k: k, start: now}
	}
	r.mu.Lock()
	ctx := r.labelLocked(k)
	idx := len(r.spans)
	r.spans = append(r.spans, span{k: k, phase: r.phase, start: now - r.t0})
	r.mu.Unlock()
	if ctx != nil {
		pprof.SetGoroutineLabels(ctx)
	}
	return Span{r: r, idx: int32(idx), k: k, start: now}
}

// labelLocked returns stage k's cached pprof label context, nil for an
// unlabeled stage. Caching keeps the steady state allocation-free.
func (r *Recorder) labelLocked(k Kernel) context.Context {
	if !stages[k].label {
		return nil
	}
	if r.labels[k] == nil {
		r.labels[k] = pprof.WithLabels(context.Background(), pprof.Labels("kernel", stages[k].name))
	}
	return r.labels[k]
}

// BeginPhase opens a phase span (KernelPhase) and makes phase the recorder's
// current phase for nested Begin calls and live snapshots.
func (r *Recorder) BeginPhase(phase int, vertices, edges int64) Span {
	now := NowNS()
	if r == nil {
		return Span{k: KernelPhase, start: now}
	}
	r.mu.Lock()
	r.phase = int32(phase)
	if int32(phase)+1 > r.phases {
		r.phases = int32(phase) + 1
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{
		k: KernelPhase, phase: int32(phase), start: now - r.t0,
		k1: "vertices", v1: vertices, k2: "edges", v2: edges,
	})
	r.mu.Unlock()
	return Span{r: r, idx: int32(idx), k: KernelPhase, start: now}
}

// NoSample returns s marked to close without a latency sample: for the
// intervals a stage's class does not count (the edge-sweep matching's final,
// ineligible pass; the incremental seed stage's measure-only path).
func (s Span) NoSample() Span {
	s.noSample = true
	return s
}

// End closes the span and returns its duration.
func (s Span) End() time.Duration { return s.end(false, "", 0, "", 0) }

// EndArgs closes the span, attaches two named numeric arguments (shown in
// the trace viewer and the JSON profile), and returns its duration.
func (s Span) EndArgs(k1 string, v1 int64, k2 string, v2 int64) time.Duration {
	return s.end(true, k1, v1, k2, v2)
}

// end closes the span: it records the duration, observes the stage's latency
// class from it (unless NoSample), and mirrors the span into the flight ring.
func (s Span) end(args bool, k1 string, v1 int64, k2 string, v2 int64) time.Duration {
	d := NowNS() - s.start
	r := s.r
	if r == nil {
		return time.Duration(d)
	}
	r.mu.Lock()
	sp := &r.spans[s.idx]
	sp.dur = d
	if args {
		sp.k1, sp.v1, sp.k2, sp.v2 = k1, v1, k2, v2
	}
	r.mu.Unlock()
	if !s.noSample {
		r.lat.Observe(s.k, d)
	}
	st := &stages[s.k]
	r.flight.Record(FlightSpan, st.cat, st.name, "", d)
	return time.Duration(d)
}

// Add accumulates d into counter c. Safe to call from the engine goroutine
// between parallel sections (pass/region boundaries); hot loops use Hot
// blocks instead.
func (r *Recorder) Add(c Counter, d int64) {
	if r == nil || d == 0 {
		return
	}
	r.mu.Lock()
	r.ctr[c] += d
	r.mu.Unlock()
}

// Counter returns the folded total of c.
func (r *Recorder) Counter(c Counter) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ctr[c]
}

// Hot returns the recorder's chunk-flush counter block; nil for the disabled
// recorder, which makes the flush in instrumented loops a nil check.
func (r *Recorder) Hot() *Hot {
	if r == nil {
		return nil
	}
	return &r.hot
}

// HotCounter returns the address of one hot counter for layers that should
// not depend on this package (the scoring sweep takes a *int64); nil when
// disabled. Flush with atomic adds, once per chunk.
func (r *Recorder) HotCounter(c Counter) *int64 {
	if r == nil {
		return nil
	}
	return &r.hot.v[c]
}

// FoldHot drains the hot block into the counter totals. The engine calls it
// at kernel boundaries, after the parallel region that fed the block has
// joined.
func (r *Recorder) FoldHot() {
	if r == nil {
		return
	}
	r.mu.Lock()
	for c := range r.hot.v {
		if d := atomic.SwapInt64(&r.hot.v[c], 0); d != 0 {
			r.ctr[c] += d
		}
	}
	r.mu.Unlock()
}

// ObserveBuckets folds a contraction's per-bucket edge counts into the
// log2 occupancy histogram. One pass over k buckets, engine goroutine only.
func (r *Recorder) ObserveBuckets(counts []int64) {
	if r == nil {
		return
	}
	var local [histBins]int64
	for _, c := range counts {
		b := bits.Len64(uint64(c))
		if b >= histBins {
			b = histBins - 1
		}
		local[b]++
	}
	r.mu.Lock()
	for i, v := range local {
		r.hist[i] += v
	}
	r.mu.Unlock()
}

// WorkerTimes returns a zeroed worker-time scratch slice of length n, reused
// across calls. Pass it to par.ForWorkerTimes and fold the result with
// FoldWorkerTimes. Engine goroutine only; nil when disabled.
func (r *Recorder) WorkerTimes(n int) []int64 {
	if r == nil {
		return nil
	}
	if cap(r.times) < n {
		r.times = make([]int64, n)
	}
	r.times = r.times[:n]
	clear(r.times)
	return r.times
}

// FoldWorkerTimes accumulates one region invocation's per-worker busy times
// into the named region's imbalance statistics.
func (r *Recorder) FoldWorkerTimes(region string, times []int64) {
	if r == nil || len(times) == 0 {
		return
	}
	var busy, max int64
	for _, t := range times {
		busy += t
		if t > max {
			max = t
		}
	}
	r.mu.Lock()
	if r.regions == nil {
		r.regions = make(map[string]*regionStats)
	}
	st := r.regions[region]
	if st == nil {
		st = &regionStats{}
		r.regions[region] = st
	}
	st.calls++
	if len(times) > st.workers {
		st.workers = len(times)
	}
	st.busyNS += busy
	st.maxNS += max
	r.mu.Unlock()
}

// ClearLabels removes the goroutine's pprof labels; the engine calls it when
// a run finishes so the caller's goroutine does not keep the last kernel's
// label.
func (r *Recorder) ClearLabels() {
	if r == nil {
		return
	}
	pprof.SetGoroutineLabels(context.Background())
}

// --- structured export ----------------------------------------------------

// Profile is the recorder's in-memory snapshot: per-kernel seconds,
// counters, the bucket-occupancy histogram, worker-imbalance regions,
// latency classes and the span timeline. Nothing serializes it; the phase
// count and heap footprint are read with Phases and Allocs.
type Profile struct {
	Kernels    []KernelSeconds
	Counters   map[string]int64
	BucketHist []HistBin
	Regions    []RegionProfile
	Latencies  []LatencyProfile
	Spans      []SpanProfile
}

// KernelSeconds is total time in one kernel across phases.
type KernelSeconds struct {
	Kernel  string  `json:"kernel"`
	Seconds float64 `json:"seconds"`
	Spans   int     `json:"spans"`
}

// HistBin is one bucket-occupancy histogram bin: the number of contraction
// buckets whose pre-dedup length fell in (MaxLen/2, MaxLen].
type HistBin struct {
	MaxLen  int64 `json:"max_len"`
	Buckets int64 `json:"buckets"`
}

// RegionProfile reports one parallel region's worker imbalance: Imbalance is
// the slowest worker's share over the perfectly balanced share (1 = even).
type RegionProfile struct {
	Region    string  `json:"region"`
	Calls     int64   `json:"calls"`
	Workers   int     `json:"workers"`
	BusySec   float64 `json:"busy_sec"`
	MaxSec    float64 `json:"max_sec"`
	Imbalance float64 `json:"imbalance"`
}

// SpanProfile is one exported timeline interval.
type SpanProfile struct {
	Cat      string           `json:"cat"`
	Name     string           `json:"name"`
	Phase    int              `json:"phase"`
	StartSec float64          `json:"start_sec"`
	DurSec   float64          `json:"dur_sec"`
	Args     map[string]int64 `json:"args,omitempty"`
}

func ns2s(ns int64) float64 { return float64(ns) / 1e9 }

// args builds a span's argument map; nil when the span has none.
func (sp *span) args() map[string]int64 {
	if sp.k1 == "" && sp.k2 == "" {
		return nil
	}
	m := make(map[string]int64, 2)
	if sp.k1 != "" {
		m[sp.k1] = sp.v1
	}
	if sp.k2 != "" {
		m[sp.k2] = sp.v2
	}
	return m
}

// KernelSeconds aggregates CatKernel spans by name — the per-kernel
// breakdown rows (score/match/contract/refine) whose sum tracks phase wall
// time.
func (r *Recorder) KernelSeconds() []KernelSeconds {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kernelSecondsLocked()
}

func (r *Recorder) kernelSecondsLocked() []KernelSeconds {
	var at [numKernels]int // 1 + the stage's index in out; 0 until seen
	out := make([]KernelSeconds, 0, numKernels)
	for i := range r.spans {
		sp := &r.spans[i]
		st := &stages[sp.k]
		if st.cat != CatKernel {
			continue
		}
		if at[sp.k] == 0 {
			out = append(out, KernelSeconds{Kernel: st.name})
			at[sp.k] = len(out)
		}
		ks := &out[at[sp.k]-1]
		ks.Seconds += ns2s(sp.dur)
		ks.Spans++
	}
	return out
}

// Export snapshots the recorder into a Profile. Safe to call concurrently
// with a run; the snapshot sees all data folded so far.
func (r *Recorder) Export() *Profile {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := &Profile{Kernels: r.kernelSecondsLocked()}
	for c := Counter(0); c < NumCounters; c++ {
		if r.ctr[c] != 0 {
			if p.Counters == nil {
				p.Counters = make(map[string]int64)
			}
			p.Counters[c.String()] = r.ctr[c]
		}
	}
	for b, n := range r.hist {
		if n == 0 {
			continue
		}
		maxLen := int64(0)
		if b > 0 {
			maxLen = int64(1)<<b - 1
		}
		p.BucketHist = append(p.BucketHist, HistBin{MaxLen: maxLen, Buckets: n})
	}
	var regions []string
	for name := range r.regions {
		regions = append(regions, name)
	}
	sort.Strings(regions)
	for _, name := range regions {
		st := r.regions[name]
		rp := RegionProfile{
			Region:  name,
			Calls:   st.calls,
			Workers: st.workers,
			BusySec: ns2s(st.busyNS),
			MaxSec:  ns2s(st.maxNS),
		}
		if st.busyNS > 0 && st.workers > 0 {
			rp.Imbalance = float64(st.maxNS) * float64(st.workers) / float64(st.busyNS)
		}
		p.Regions = append(p.Regions, rp)
	}
	p.Latencies = r.lat.Export()
	for i := range r.spans {
		sp := &r.spans[i]
		p.Spans = append(p.Spans, SpanProfile{
			Cat:      stages[sp.k].cat,
			Name:     stages[sp.k].name,
			Phase:    int(sp.phase),
			StartSec: ns2s(sp.start),
			DurSec:   ns2s(sp.dur),
			Args:     sp.args(),
		})
	}
	return p
}
