package obs

import (
	"math"
	"sort"
	"sync"
	"testing"
)

// TestNilLatencyHistIsSafe: the disabled histogram must accept every call.
func TestNilLatencyHistIsSafe(t *testing.T) {
	var h *LatencyHist
	h.Observe(100)
	h.Reset()
	if h.Quantile(0.5) != 0 || h.Snapshot("x") != nil {
		t.Fatal("nil histogram holds state")
	}
	var s *LatencySet
	s.Observe(KernelDetect, 100)
	s.Reset()
	if s.Export() != nil {
		t.Fatal("nil latency set holds state")
	}
}

// TestLatBucketBounds pins the bucketing map: every representable duration
// lands in a bucket whose upper bound is at least the value and at most
// (1+1/latSub) times it — the histogram's advertised quantile error.
func TestLatBucketBounds(t *testing.T) {
	for _, ns := range []int64{
		1 << latMinShift, 1<<latMinShift + 1, 1500, 4095, 4096, 4097,
		1_000_000, 999_999_999, 1<<latMaxShift - 1,
	} {
		b := latBucketOf(ns)
		up := latUpperNS(b)
		if up < float64(ns) {
			t.Errorf("ns=%d bucket %d upper %g < value", ns, b, up)
		}
		if up > float64(ns)*(1+1.0/latSub) {
			t.Errorf("ns=%d bucket %d upper %g exceeds (1+1/%d) bound", ns, b, up, latSub)
		}
	}
	if b := latBucketOf(100); b != 0 {
		t.Errorf("sub-range value got bucket %d, want underflow 0", b)
	}
	if b := latBucketOf(1 << 40); b != numLatBuckets-1 {
		t.Errorf("overflow value got bucket %d, want %d", b, numLatBuckets-1)
	}
	if up := latUpperNS(numLatBuckets - 1); !math.IsInf(up, 1) {
		t.Errorf("overflow upper = %g, want +Inf", up)
	}
}

// lcg is a deterministic pseudo-random source so the quantile-accuracy check
// never flakes.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r)
}

// TestLatencyHistQuantileAccuracy draws a deterministic heavy-tailed sample,
// then checks every reported quantile against the exact sorted-sample answer:
// the estimate must be at least the true value and within the 1/latSub
// relative-error bound the log-linear layout guarantees.
func TestLatencyHistQuantileAccuracy(t *testing.T) {
	var h LatencyHist
	var r lcg = 42
	const n = 20000
	samples := make([]int64, n)
	for i := range samples {
		// Spread across ~16 octaves: 2^12 .. 2^28 ns.
		shift := 12 + r.next()%17
		ns := int64(1<<shift + r.next()%(1<<shift))
		samples[i] = ns
		h.Observe(ns)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 1.0} {
		k := int(math.Ceil(q*n)) - 1
		if k < 0 {
			k = 0
		}
		truth := float64(samples[k]) / 1e9
		est := h.Quantile(q)
		if est < truth {
			t.Errorf("q=%.2f: estimate %g below true %g", q, est, truth)
		}
		if est > truth*(1+1.0/latSub)+1e-12 {
			t.Errorf("q=%.2f: estimate %g exceeds error bound over true %g", q, est, truth)
		}
	}
	if got, want := h.count.Load(), int64(n); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
}

// TestLatencyHistOverflowQuantile: the overflow bucket reports the exact
// running max, not +Inf.
func TestLatencyHistOverflowQuantile(t *testing.T) {
	var h LatencyHist
	h.Observe(1 << 40)
	h.Observe(1<<40 + 5)
	if got, want := h.Quantile(1.0), float64(1<<40+5)/1e9; got != want {
		t.Fatalf("overflow quantile = %g, want exact max %g", got, want)
	}
}

// TestLatencyHistConcurrent hammers one histogram from many goroutines; run
// under -race this pins the lock-free observation path, and the final count
// checks no observation was lost.
func TestLatencyHistConcurrent(t *testing.T) {
	var h LatencyHist
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var r lcg = lcg(w + 1)
			for i := 0; i < per; i++ {
				h.Observe(int64(1<<14 + r.next()%(1<<20)))
			}
		}(w)
	}
	wg.Wait()
	if got, want := h.count.Load(), int64(workers*per); got != want {
		t.Fatalf("Count = %d, want %d (lost observations)", got, want)
	}
}

// TestLatencySnapshotCumulative: exported buckets are cumulative and monotone
// with the last count equal to the total.
func TestLatencySnapshotCumulative(t *testing.T) {
	var h LatencyHist
	for i := int64(0); i < 500; i++ {
		h.Observe(1<<12 + i*31337)
	}
	p := h.Snapshot("test")
	if p == nil || len(p.Buckets) == 0 {
		t.Fatal("snapshot empty")
	}
	prevLe, prevCount := -1.0, int64(0)
	for _, b := range p.Buckets {
		if b.LeSec <= prevLe {
			t.Fatalf("bucket bounds not increasing: %g after %g", b.LeSec, prevLe)
		}
		if b.Count < prevCount {
			t.Fatalf("cumulative count decreased: %d after %d", b.Count, prevCount)
		}
		prevLe, prevCount = b.LeSec, b.Count
	}
	if prevCount != p.Count {
		t.Fatalf("last cumulative count %d != total %d", prevCount, p.Count)
	}
}

// TestLatencySetExport: classes export under their stable names in class
// order, skipping empty ones.
func TestLatencySetExport(t *testing.T) {
	var s LatencySet
	s.Observe(KernelDetect, 1<<20)
	s.Observe(KernelContract, 1<<21)
	s.Observe(KernelPhase, 1<<21) // no class: dropped
	out := s.Export()
	if len(out) != 2 || out[0].Class != "detect" || out[1].Class != "contract" {
		t.Fatalf("export = %+v, want detect then contract", out)
	}
	s.Reset()
	if s.Export() != nil {
		t.Fatal("export after reset not empty")
	}
}

// TestRecorderLatencies: the recorder-level accessors route to the embedded
// set and no-op on nil.
func TestRecorderLatencies(t *testing.T) {
	var nilRec *Recorder
	nilRec.ObserveLatency(KernelDetect, 100)
	if nilRec.Latencies() != nil {
		t.Fatal("nil recorder holds latency state")
	}
	r := New()
	r.ObserveLatency(KernelLevel, 1<<20)
	if got := r.Latencies(); len(got) != 1 || got[0].Class != "level" {
		t.Fatalf("Latencies = %+v, want one level profile", got)
	}
	r.Reset()
	if r.Latencies() != nil {
		t.Fatal("latencies survive Reset")
	}
}
