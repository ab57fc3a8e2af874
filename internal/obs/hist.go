package obs

// Low-overhead latency histograms for the serving-grade telemetry layer.
//
// LatencyHist is a fixed-size log-linear histogram: values bucket by power
// of two (octave) with latSub linear sub-buckets per octave, so a recorded
// duration lands in a bucket whose width is 1/latSub of its octave base.
// Quantiles estimated from bucket upper bounds therefore overshoot the true
// sample quantile by at most a factor of 1+1/latSub (6.25% with latSub=16) —
// tight enough for p50/p90/p99 serving dashboards, cheap enough (one atomic
// add per observation, no locks, no allocation) to record on every Detect,
// level, and kernel pass.
//
// A nil *LatencyHist (and a nil *LatencySet) is disabled: every method is a
// nil-check no-op, preserving the package's zero-cost-when-off invariant.

import (
	"math"
	"math/bits"
	"sync/atomic"
)

const (
	// latSubBits/latSub: linear sub-buckets per power-of-two octave. 16
	// sub-buckets bound the quantile estimate's relative error at 1/16.
	latSubBits = 4
	latSub     = 1 << latSubBits
	// latMinShift/latMaxShift bound the resolved range: values below
	// 2^latMinShift ns (~1µs) collapse into the underflow bucket, values at
	// or above 2^latMaxShift ns (~69s) into the overflow bucket.
	latMinShift = 10
	latMaxShift = 36
	latOctaves  = latMaxShift - latMinShift
	// numLatBuckets = underflow + octaves*sub + overflow.
	numLatBuckets = latOctaves*latSub + 2
)

// LatencyHist is one log-linear latency distribution. The zero value is
// ready; all methods are safe for concurrent use and a nil receiver no-ops.
// It must not be copied after first use (atomic fields).
type LatencyHist struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [numLatBuckets]atomic.Int64
}

// latBucketOf maps a nanosecond duration to its bucket index.
func latBucketOf(ns int64) int {
	if ns < 1<<latMinShift {
		return 0
	}
	if ns >= 1<<latMaxShift {
		return numLatBuckets - 1
	}
	o := bits.Len64(uint64(ns)) - 1                   // 2^o <= ns < 2^(o+1)
	sub := int((ns - 1<<o) >> (uint(o) - latSubBits)) // linear position within the octave
	return 1 + (o-latMinShift)*latSub + sub
}

// latUpperNS returns the inclusive upper bound (ns) of bucket b; the
// overflow bucket reports +Inf.
func latUpperNS(b int) float64 {
	if b == 0 {
		return float64(int64(1) << latMinShift)
	}
	if b >= numLatBuckets-1 {
		return math.Inf(1)
	}
	b--
	o := b/latSub + latMinShift
	sub := b % latSub
	return float64((int64(1) << o) + int64(sub+1)<<(uint(o)-latSubBits))
}

// Observe records one duration in nanoseconds. One atomic add per call (plus
// a CAS loop only while the running max is still rising); nil receivers and
// negative durations no-op.
func (h *LatencyHist) Observe(ns int64) {
	if h == nil || ns < 0 {
		return
	}
	h.buckets[latBucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sumNS.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Reset clears the histogram.
func (h *LatencyHist) Reset() {
	if h == nil {
		return
	}
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
	h.count.Store(0)
	h.sumNS.Store(0)
	h.maxNS.Store(0)
}

// Quantile estimates the q-quantile (q in [0,1]) in seconds from the bucket
// upper bounds: the estimate is at least the true sample quantile and at
// most 1+1/latSub times it (for values inside the resolved range). The
// overflow bucket reports the exact running max instead of +Inf. Returns 0
// for an empty histogram.
func (h *LatencyHist) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for b := 0; b < numLatBuckets; b++ {
		cum += h.buckets[b].Load()
		if cum >= target {
			if b == numLatBuckets-1 {
				return float64(h.maxNS.Load()) / 1e9
			}
			return latUpperNS(b) / 1e9
		}
	}
	return float64(h.maxNS.Load()) / 1e9
}

// LatencyBucket is one cumulative histogram step for export: Count
// observations were at most LeSec seconds.
type LatencyBucket struct {
	LeSec float64 `json:"le_sec"`
	Count int64   `json:"count"`
}

// LatencyProfile is a histogram snapshot: summary quantiles plus the
// non-empty cumulative buckets (Prometheus-shaped, +Inf last when the
// overflow bucket is populated; renderers add +Inf themselves otherwise).
type LatencyProfile struct {
	Class   string          `json:"class"`
	Count   int64           `json:"count"`
	SumSec  float64         `json:"sum_sec"`
	MaxSec  float64         `json:"max_sec"`
	P50Sec  float64         `json:"p50_sec"`
	P90Sec  float64         `json:"p90_sec"`
	P99Sec  float64         `json:"p99_sec"`
	Buckets []LatencyBucket `json:"buckets,omitempty"`
}

// Snapshot exports the histogram under the given class name; nil for a nil
// or empty histogram.
func (h *LatencyHist) Snapshot(class string) *LatencyProfile {
	if h == nil {
		return nil
	}
	total := h.count.Load()
	if total == 0 {
		return nil
	}
	p := &LatencyProfile{
		Class:  class,
		Count:  total,
		SumSec: float64(h.sumNS.Load()) / 1e9,
		MaxSec: float64(h.maxNS.Load()) / 1e9,
		P50Sec: h.Quantile(0.50),
		P90Sec: h.Quantile(0.90),
		P99Sec: h.Quantile(0.99),
	}
	var cum int64
	for b := 0; b < numLatBuckets; b++ {
		v := h.buckets[b].Load()
		if v == 0 {
			continue
		}
		cum += v
		p.Buckets = append(p.Buckets, LatencyBucket{LeSec: latUpperNS(b) / 1e9, Count: cum})
	}
	return p
}

// LatencySet is the fixed block of per-class latency histograms a Recorder
// carries, one per class-bearing stage of the stage table. The zero value is
// ready; a nil *LatencySet no-ops.
type LatencySet struct {
	h [numClasses]LatencyHist
}

// Observe records one duration (ns) under stage k's class; a stage without
// a class no-ops.
func (s *LatencySet) Observe(k Kernel, ns int64) {
	if s == nil || k >= numClasses {
		return
	}
	s.h[k].Observe(ns)
}

// Reset clears every class.
func (s *LatencySet) Reset() {
	if s == nil {
		return
	}
	for c := range s.h {
		s.h[c].Reset()
	}
}

// Export snapshots the non-empty classes in class order.
func (s *LatencySet) Export() []LatencyProfile {
	if s == nil {
		return nil
	}
	var out []LatencyProfile
	for c := range s.h {
		if p := s.h[c].Snapshot(stages[c].class); p != nil {
			out = append(out, *p)
		}
	}
	return out
}
