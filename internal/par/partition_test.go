package par

import (
	"math/rand"
	"testing"
)

// randBuckets builds a triple-store-like bucket layout: n buckets with the
// given lengths laid out with random slack between them, mimicking the
// over-provisioned bucket storage contraction produces.
func randBuckets(r *rand.Rand, lens []int64) (start, end []int64) {
	n := len(lens)
	start = make([]int64, n)
	end = make([]int64, n)
	cur := int64(0)
	for x := 0; x < n; x++ {
		cur += int64(r.Intn(3)) // slack hole before the bucket
		start[x] = cur
		end[x] = cur + lens[x]
		cur = end[x]
	}
	return start, end
}

// bucketLayouts is the adversarial layout set shared by the partition
// property tests: uniform, empty, single mega-hub, power-law-ish, and
// all-empty degenerate cases.
func bucketLayouts(r *rand.Rand) map[string][]int64 {
	powerLaw := make([]int64, 300)
	for i := range powerLaw {
		powerLaw[i] = int64(r.Intn(4))
	}
	powerLaw[17] = 5000 // one mega-hub dwarfing everything
	powerLaw[251] = 900
	uniform := make([]int64, 256)
	for i := range uniform {
		uniform[i] = 8
	}
	hubFirst := make([]int64, 64)
	hubFirst[0] = 100000
	return map[string][]int64{
		"uniform":   uniform,
		"powerlaw":  powerLaw,
		"hub-first": hubFirst,
		"all-empty": make([]int64, 97),
		"one":       {42},
		"two-tiny":  {1, 1},
	}
}

func TestPartitionRangesTile(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for name, lens := range bucketLayouts(r) {
		start, end := randBuckets(r, lens)
		n := len(lens)
		for _, p := range []int{1, 2, 3, 7, 16, 64, 1000} {
			var pt Partition
			pt.BuildBuckets(nil, p, n, start, end)
			if pt.Items() != n {
				t.Fatalf("%s p=%d: Items = %d, want %d", name, p, pt.Items(), n)
			}
			w := pt.Workers()
			if w != Workers(p, n) {
				t.Fatalf("%s p=%d: Workers = %d, want %d", name, p, w, Workers(p, n))
			}
			// Ranges tile [0, n): bounds monotone, first 0, last n.
			prev := 0
			for i := 0; i < w; i++ {
				lo, hi := pt.Range(i)
				if lo != prev || hi < lo || hi > n {
					t.Fatalf("%s p=%d: range %d = [%d,%d) after %d", name, p, i, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("%s p=%d: ranges end at %d, want %d", name, p, prev, n)
			}
		}
	}
}

func TestPartitionRangesBalanced(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for name, lens := range bucketLayouts(r) {
		start, end := randBuckets(r, lens)
		n := len(lens)
		var maxW int64
		var total int64
		for x := 0; x < n; x++ {
			w := end[x] - start[x] + 1
			total += w
			if w > maxW {
				maxW = w
			}
		}
		for _, p := range []int{2, 3, 8, 31} {
			var pt Partition
			pt.BuildBuckets(nil, p, n, start, end)
			w := pt.Workers()
			even := total / int64(w)
			for i := 0; i < w; i++ {
				lo, hi := pt.Range(i)
				var got int64
				for x := lo; x < hi; x++ {
					got += end[x] - start[x] + 1
				}
				// Item-aligned boundaries miss the even share by less
				// than one max-weight item on each side.
				if got > even+2*maxW || (got < even-2*maxW && got != 0) {
					t.Fatalf("%s p=%d: range %d weight %d vs even %d (max item %d)",
						name, p, i, got, even, maxW)
				}
			}
		}
	}
}

func TestPartitionSpansTileEdgesExactly(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for name, lens := range bucketLayouts(r) {
		start, end := randBuckets(r, lens)
		n := len(lens)
		for _, p := range []int{1, 2, 3, 5, 13, 64} {
			var pt Partition
			pt.BuildBuckets(nil, p, n, start, end)
			if !pt.hasSpans() {
				t.Fatalf("%s p=%d: no spans after BuildBuckets", name, p)
			}
			w := pt.Workers()
			// Count how many spans cover each edge slot of each bucket.
			covered := make(map[int64]int)
			for i := 0; i < w; i++ {
				sp := pt.Span(i)
				if sp.LoV > sp.HiV || sp.LoV < 0 || sp.HiV > n {
					t.Fatalf("%s p=%d: span %d = %+v out of range", name, p, i, sp)
				}
				for x := sp.LoV; x < sp.HiV; x++ {
					elo, ehi := start[x], end[x]
					if x == sp.LoV {
						elo = sp.LoE
					}
					if x == sp.HiV-1 {
						ehi = sp.HiE
					}
					if elo < start[x] || ehi > end[x] || elo > ehi {
						t.Fatalf("%s p=%d: span %d piece of bucket %d = [%d,%d) outside [%d,%d)",
							name, p, i, x, elo, ehi, start[x], end[x])
					}
					for e := elo; e < ehi; e++ {
						covered[e]++
					}
				}
			}
			for x := 0; x < n; x++ {
				for e := start[x]; e < end[x]; e++ {
					if covered[e] != 1 {
						t.Fatalf("%s p=%d: edge %d of bucket %d covered %d times",
							name, p, e, x, covered[e])
					}
				}
			}
		}
	}
}

// Each vertex's bucket start (where per-vertex work like self-loop folding
// happens) must belong to exactly one span piece, including empty buckets.
func TestPartitionSpanVertexOwnershipUnique(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for name, lens := range bucketLayouts(r) {
		start, end := randBuckets(r, lens)
		n := len(lens)
		for _, p := range []int{1, 2, 4, 9, 32} {
			var pt Partition
			pt.BuildBuckets(nil, p, n, start, end)
			owners := make([]int, n)
			for i := 0; i < pt.Workers(); i++ {
				sp := pt.Span(i)
				for x := sp.LoV; x < sp.HiV; x++ {
					elo := start[x]
					if x == sp.LoV {
						elo = sp.LoE
					}
					if elo == start[x] {
						owners[x]++
					}
				}
			}
			for x := 0; x < n; x++ {
				if owners[x] != 1 {
					t.Fatalf("%s p=%d: bucket %d owned by %d spans", name, p, x, owners[x])
				}
			}
		}
	}
}

// The matching claim phase keeps per-vertex candidate state, so its
// schedule must never split a vertex between workers: indexed builds
// produce item-aligned ranges only, no spans.
func TestPartitionIndexedAlignedOnly(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	lens := bucketLayouts(r)["powerlaw"]
	start, end := randBuckets(r, lens)
	list := make([]int64, 0, len(lens))
	for x := range lens {
		if x%3 != 0 { // a shrunken worklist, out of step with vertex ids
			list = append(list, int64(x))
		}
	}
	for _, p := range []int{1, 2, 5, 16} {
		var pt Partition
		pt.BuildIndexed(nil, p, list, start, end)
		if pt.hasSpans() {
			t.Fatalf("p=%d: indexed build produced spans", p)
		}
		if pt.Items() != len(list) {
			t.Fatalf("p=%d: Items = %d, want %d", p, pt.Items(), len(list))
		}
		prev := 0
		for i := 0; i < pt.Workers(); i++ {
			lo, hi := pt.Range(i)
			if lo != prev {
				t.Fatalf("p=%d: range %d starts at %d, want %d", p, i, lo, prev)
			}
			prev = hi
		}
		if prev != len(list) {
			t.Fatalf("p=%d: ranges end at %d, want %d", p, prev, len(list))
		}
	}
}

func TestPartitionBuildWeightsTile(t *testing.T) {
	weights := []int64{0, 5, 0, 0, 100, 1, 2, 0, 3}
	for _, p := range []int{1, 2, 3, 4, 100} {
		var pt Partition
		pt.BuildWeights(nil, p, len(weights), weights)
		prev := 0
		for i := 0; i < pt.Workers(); i++ {
			lo, hi := pt.Range(i)
			if lo != prev || hi < lo {
				t.Fatalf("p=%d: range %d = [%d,%d) after %d", p, i, lo, hi, prev)
			}
			prev = hi
		}
		if prev != len(weights) {
			t.Fatalf("p=%d: ranges end at %d, want %d", p, prev, len(weights))
		}
		var wantTotal int64
		for _, w := range weights {
			wantTotal += w + 1
		}
		if pt.TotalWeight() != wantTotal {
			t.Fatalf("p=%d: TotalWeight = %d, want %d", p, pt.TotalWeight(), wantTotal)
		}
	}
}

// A Partition is level-scratch: rebuilding over different sizes and worker
// counts must reuse storage and stay correct, and Reset must invalidate.
func TestPartitionRebuildAndReset(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	var pt Partition
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(200)
		lens := make([]int64, n)
		for i := range lens {
			lens[i] = int64(r.Intn(50))
		}
		start, end := randBuckets(r, lens)
		p := 1 + r.Intn(8)
		pt.BuildBuckets(nil, p, n, start, end)
		if pt.Items() != n || !pt.hasSpans() {
			t.Fatalf("trial %d: rebuild broken: items=%d spans=%v", trial, pt.Items(), pt.hasSpans())
		}
		var total int64
		for x := 0; x < n; x++ {
			total += end[x] - start[x] + 1
		}
		if pt.TotalWeight() != total {
			t.Fatalf("trial %d: TotalWeight = %d, want %d", trial, pt.TotalWeight(), total)
		}
	}
	pt.Reset()
	if pt.Items() != 0 || pt.Workers() != 0 || pt.hasSpans() {
		t.Fatalf("Reset left partition live: %+v", pt)
	}
}

// The parallel prefix path (n >= 4096 inside ExclusiveSumInt64) must agree
// with the serial one.
func TestPartitionLargeParallelPrefix(t *testing.T) {
	n := 10000
	lens := make([]int64, n)
	r := rand.New(rand.NewSource(7))
	for i := range lens {
		lens[i] = int64(r.Intn(16))
	}
	lens[123] = 100000
	start, end := randBuckets(r, lens)
	var serial, parallel Partition
	serial.BuildBuckets(nil, 1, n, start, end)
	parallel.BuildBuckets(nil, 8, n, start, end)
	var total int64
	for x := 0; x < n; x++ {
		total += end[x] - start[x] + 1
	}
	if serial.TotalWeight() != total || parallel.TotalWeight() != total {
		t.Fatalf("TotalWeight serial=%d parallel=%d want %d",
			serial.TotalWeight(), parallel.TotalWeight(), total)
	}
	// Spans of the parallel build still tile all edges exactly.
	var sum int64
	for i := 0; i < parallel.Workers(); i++ {
		sp := parallel.Span(i)
		for x := sp.LoV; x < sp.HiV; x++ {
			elo, ehi := start[x], end[x]
			if x == sp.LoV {
				elo = sp.LoE
			}
			if x == sp.HiV-1 {
				ehi = sp.HiE
			}
			sum += ehi - elo
		}
	}
	if sum != total-int64(n) {
		t.Fatalf("span edge total = %d, want %d", sum, total-int64(n))
	}
}

func TestPartitionAlignedImbalance(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for name, lens := range bucketLayouts(r) {
		start, end := randBuckets(r, lens)
		n := len(lens)
		var total, maxW int64
		for x := 0; x < n; x++ {
			w := end[x] - start[x] + 1
			total += w
			if w > maxW {
				maxW = w
			}
		}
		for _, p := range []int{1, 2, 3, 8, 31} {
			var pt Partition
			pt.BuildBuckets(nil, p, n, start, end)
			got := pt.AlignedImbalance()
			if got < 1 {
				t.Fatalf("%s p=%d: imbalance %v below 1", name, p, got)
			}
			// Brute-force the heaviest worker from Range.
			w := pt.Workers()
			var heaviest int64
			for i := 0; i < w; i++ {
				lo, hi := pt.Range(i)
				var wt int64
				for x := lo; x < hi; x++ {
					wt += end[x] - start[x] + 1
				}
				if wt > heaviest {
					heaviest = wt
				}
			}
			want := float64(heaviest) * float64(w) / float64(total)
			if got != want {
				t.Fatalf("%s p=%d: imbalance %v, brute force %v", name, p, got, want)
			}
			// The analytic whole-bucket bound: a schedule that never splits
			// a bucket cannot beat max(1, maxW*w/total).
			bound := float64(maxW) * float64(w) / float64(total)
			if bound < 1 {
				bound = 1
			}
			if got+1e-9 < bound {
				t.Fatalf("%s p=%d: imbalance %v beats analytic bound %v", name, p, got, bound)
			}
		}
	}
	var empty Partition
	if got := empty.AlignedImbalance(); got != 0 {
		t.Fatalf("empty partition imbalance %v, want 0", got)
	}
}
