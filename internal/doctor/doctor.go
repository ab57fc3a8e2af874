// Package doctor learns robust per-configuration baselines from archived
// run manifests and assesses new runs against them — the "run doctor" that
// closes the loop PRs 5/7 opened: manifests, convergence ledgers, and
// latency histograms are finally read back, at the end of every run and
// offline over any manifest set.
//
// The statistics are deliberately boring and robust. For each baseline key
// (graph × engine × threads × shards × host CPUs × GOMAXPROCS × Go version)
// and each metric, the model is the median and the MAD (median absolute
// deviation) over the archived runs; a new observation's drift is the
// robust z-score
//
//	z = (x − median) / max(1.4826·MAD, 5%·median)
//
// — the 1.4826 factor makes the MAD a consistent σ estimate under
// normality, and the 5%-of-median floor keeps a freakishly tight baseline
// (MAD 0 after five identical runs) from turning measurement noise into
// infinite z. A finding requires BOTH |z| past the threshold AND the change
// past a relative floor (plus an absolute floor for timing metrics, so
// microsecond jitter on tiny graphs never flags) — z answers "is this
// outside the noise", the ratio answers "is it big enough to care".
// Direction is metric-aware: slower, more allocation, or lower modularity
// is a regression; drift the other way is still surfaced (an unexplained
// speedup deserves a look) but does not fail a gate.
//
// Layering: doctor imports report and obs and is imported by harness and
// cmd/doctor — never by core, report, or obs. The Verdict type itself lives
// in internal/obs so manifests and flight dumps (below this package) can
// embed it.
package doctor

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/report"
)

// Key is one baseline bucket: runs are only comparable within the same
// workload and execution shape, on the same host shape and Go release.
type Key struct {
	Graph   string
	Engine  string
	Threads int
	Shards  int
	// NumCPU, GOMAXPROCS and GoVersion come from the manifest's host
	// metadata; a manifest without it keys them as zero values.
	NumCPU     int
	GOMAXPROCS int
	GoVersion  string
}

// KeyOf buckets a manifest.
func KeyOf(m *report.Manifest) Key {
	k := Key{
		Graph:   m.Graph.Name,
		Engine:  m.Options.Engine,
		Threads: m.Options.Threads,
		Shards:  m.Options.Shards,
	}
	if h := m.Host; h != nil {
		k.NumCPU, k.GOMAXPROCS, k.GoVersion = h.NumCPU, h.GOMAXPROCS, h.GoVersion
	}
	return k
}

// String renders the key the way reports and verdicts print it.
func (k Key) String() string {
	return fmt.Sprintf("%s engine=%s threads=%d shards=%d num_cpu=%d gomaxprocs=%d go=%s",
		k.Graph, k.Engine, k.Threads, k.Shards, k.NumCPU, k.GOMAXPROCS, k.GoVersion)
}

// Options tune the assessment thresholds; zero fields take defaults.
type Options struct {
	// ZThreshold is the robust |z| a drift must exceed (default 4 — noise
	// on a healthy host stays under 2, a real 3× regression lands in the
	// tens).
	ZThreshold float64
	// MinRuns is the baseline size below which no assessment happens
	// (default 3 — a median over fewer runs is not a model).
	MinRuns int
	// MinRatio is the relative-change floor: value must be at least
	// MinRatio× the median in the drifting direction (default 1.5).
	MinRatio float64
	// MinAbsSec is the absolute floor for timing metrics: drift smaller
	// than this many seconds never flags regardless of ratio (default
	// 0.02s), so sub-millisecond kernels on toy graphs stay quiet.
	MinAbsSec float64
}

// Default thresholds.
const (
	DefaultZThreshold = 4.0
	DefaultMinRuns    = 3
	DefaultMinRatio   = 1.5
	DefaultMinAbsSec  = 0.02
)

func (o Options) withDefaults() Options {
	if o.ZThreshold <= 0 {
		o.ZThreshold = DefaultZThreshold
	}
	if o.MinRuns <= 0 {
		o.MinRuns = DefaultMinRuns
	}
	if o.MinRatio <= 1 {
		o.MinRatio = DefaultMinRatio
	}
	if o.MinAbsSec <= 0 {
		o.MinAbsSec = DefaultMinAbsSec
	}
	return o
}

// metric kinds: how direction and floors apply.
const (
	kindTiming  = iota // higher is worse; MinAbsSec floor applies
	kindCount          // higher is worse; relative floor only
	kindQuality        // lower is worse
	kindShape          // convergence shape; more levels is the bad way
)

type observation struct {
	name  string
	value float64
	kind  int
}

// observe extracts a manifest's metric vector: total seconds, per-kernel
// seconds, latency p99 per class, convergence level count, final
// modularity, and the allocation footprint. Only "run" manifests with a
// summary participate — partial crash manifests describe interrupted runs.
func observe(m *report.Manifest) []observation {
	if m.Kind != "run" || m.Summary == nil {
		return nil
	}
	obsv := []observation{
		{"total_sec", m.Summary.TotalSec, kindTiming},
		{"modularity", m.Summary.Modularity, kindQuality},
	}
	if len(m.Levels) > 0 {
		obsv = append(obsv, observation{"levels", float64(len(m.Levels)), kindShape})
	}
	for _, k := range m.Kernels {
		obsv = append(obsv, observation{"kernel_seconds/" + k.Kernel, k.Seconds, kindTiming})
	}
	for _, lp := range m.Latencies {
		obsv = append(obsv, observation{"latency_p99/" + lp.Class, lp.P99Sec, kindTiming})
	}
	if m.Allocs != nil {
		obsv = append(obsv, observation{"alloc_bytes", float64(m.Allocs.Bytes), kindCount})
	}
	return obsv
}

// Stat is one metric's learned baseline distribution.
type Stat struct {
	Median float64
	MAD    float64
	N      int
	kind   int
}

// Baseline is the learned model: per key, per metric, a robust location and
// scale.
type Baseline struct {
	Runs  map[Key]int
	Stats map[Key]map[string]Stat
}

// Learn builds the baseline from archived manifests. Order does not matter;
// partial manifests and runs without a summary are ignored.
func Learn(ms []*report.Manifest) *Baseline {
	samples := map[Key]map[string][]float64{}
	kinds := map[string]int{}
	runs := map[Key]int{}
	for _, m := range ms {
		o := observe(m)
		if o == nil {
			continue
		}
		k := KeyOf(m)
		runs[k]++
		byMetric := samples[k]
		if byMetric == nil {
			byMetric = map[string][]float64{}
			samples[k] = byMetric
		}
		for _, ob := range o {
			byMetric[ob.name] = append(byMetric[ob.name], ob.value)
			kinds[ob.name] = ob.kind
		}
	}
	b := &Baseline{Runs: runs, Stats: map[Key]map[string]Stat{}}
	for k, byMetric := range samples {
		st := map[string]Stat{}
		for name, xs := range byMetric {
			med := median(xs)
			dev := make([]float64, len(xs))
			for i, x := range xs {
				dev[i] = math.Abs(x - med)
			}
			st[name] = Stat{Median: med, MAD: median(dev), N: len(xs), kind: kinds[name]}
		}
		b.Stats[k] = st
	}
	return b
}

// median over a copy (the input order is preserved for trend rendering).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sigma is the robust scale estimate with the degenerate-MAD floor.
func sigma(st Stat) float64 {
	s := 1.4826 * st.MAD
	if floor := 0.05 * math.Abs(st.Median); s < floor {
		s = floor
	}
	if s <= 0 {
		s = 1e-12
	}
	return s
}

// Assess scores one manifest against the baseline and returns its verdict.
// Never nil: with fewer than MinRuns archived runs under the key the status
// is VerdictNoBaseline.
func (b *Baseline) Assess(m *report.Manifest, o Options) *obs.Verdict {
	o = o.withDefaults()
	key := KeyOf(m)
	v := &obs.Verdict{Status: obs.VerdictOK, Key: key.String(), BaselineRuns: b.Runs[key]}
	if v.BaselineRuns < o.MinRuns {
		v.Status = obs.VerdictNoBaseline
		return v
	}
	stats := b.Stats[key]
	for _, ob := range observe(m) {
		st, ok := stats[ob.name]
		if !ok || st.N < o.MinRuns {
			continue
		}
		z := (ob.value - st.Median) / sigma(st)
		if az := math.Abs(z); az > v.MaxAbsZ {
			v.MaxAbsZ = az
		}
		if math.Abs(z) < o.ZThreshold {
			continue
		}
		f := drift(ob, st, z, o)
		if f == nil {
			continue
		}
		v.Findings = append(v.Findings, *f)
	}
	if len(v.Findings) > 0 {
		v.Status = obs.VerdictAnomalous
	}
	return v
}

// drift applies the direction-aware floors to one past-threshold z and
// builds the finding, nil when the change is too small to care about.
func drift(ob observation, st Stat, z float64, o Options) *obs.DriftFinding {
	up := ob.value > st.Median // drifted high
	delta := math.Abs(ob.value - st.Median)
	// Relative floor: the change must be MinRatio× in its direction. Guard
	// division by a zero median (ratio 0 disables the ratio test and the
	// absolute floors decide).
	bigEnough := false
	ratio := 0.0
	if st.Median != 0 {
		ratio = ob.value / st.Median
		if up {
			bigEnough = ratio >= o.MinRatio
		} else {
			bigEnough = ratio <= 1/o.MinRatio
		}
	} else {
		bigEnough = ob.value != 0
	}
	if (ob.kind == kindTiming) && delta < o.MinAbsSec {
		return nil
	}
	if !bigEnough {
		return nil
	}
	regression := up
	if ob.kind == kindQuality {
		regression = !up
	}
	return &obs.DriftFinding{
		Metric:     ob.name,
		Value:      ob.value,
		Median:     st.Median,
		MAD:        st.MAD,
		Z:          z,
		Ratio:      ratio,
		Regression: regression,
	}
}
