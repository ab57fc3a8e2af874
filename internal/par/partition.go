package par

// This file holds the edge-balanced static scheduler. The paper's parity
// hash (§IV-A) scatters hub *storage* across buckets, but a loop that hands
// each worker an equal count of vertices still schedules *work* by vertex,
// so on power-law graphs one worker can draw a mega-hub's whole adjacency
// while its peers idle. A Partition fixes the schedule instead of the
// layout: an exclusive prefix sum over per-item weights (bucket sizes plus
// one, so empty buckets still cost a unit of vertex work) turns "give every
// worker an equal share of edges" into W binary searches, computed once per
// hierarchy level and reused by every sweep over that level.
//
// Two views of the same prefix are exposed. Ranges are item-aligned: worker
// w owns items [bounds[w], bounds[w+1]), the boundaries rounded to whole
// items, which any per-vertex kernel can use. Spans additionally split
// oversized hub buckets at exact edge offsets, so edge-parallel sweeps
// (scoring, contraction count/scatter) stay balanced even when one bucket
// outweighs an even share; kernels that keep per-vertex state (matching's
// propose/claim) must use the aligned ranges instead.

// Span is one worker's share of an edge-balanced sweep: vertices
// [LoV, HiV), with the bucket of LoV entered only from edge index LoE and
// the bucket of HiV-1 left at edge index HiE. Interior buckets are covered
// whole. LoE and HiE are absolute indices into the graph's edge arrays,
// so a Span is only meaningful against the Start/End slices it was built
// from. An empty span has LoV == HiV.
type Span struct {
	LoV, HiV int
	LoE, HiE int64
}

// Partition is a reusable edge-balanced schedule over n items for a fixed
// worker count. Build it once per hierarchy level with BuildBuckets (or the
// weight variants), then read the per-worker assignments with Range and
// Span. The zero value is empty; all storage is reused across rebuilds.
type Partition struct {
	items   int
	workers int
	total   int64   // Σ weights = edges + items for bucket builds
	prefix  []int64 // len items+1 exclusive prefix; prefix[items] == total
	bounds  []int   // len workers+1 item-aligned boundaries
	spans   []Span  // len workers when the build produces spans, else empty
}

// Items reports the item count the partition was built over.
func (pt *Partition) Items() int { return pt.items }

// Workers reports the worker count the partition was built for.
func (pt *Partition) Workers() int { return pt.workers }

// TotalWeight reports the summed weight. For BuildBuckets and BuildIndexed
// that is edges + items (each item carries a +1 so empty buckets still
// schedule); callers use it to verify a cached partition still matches the
// graph it is about to sweep.
func (pt *Partition) TotalWeight() int64 { return pt.total }

// HasSpans reports whether the build produced edge-exact spans.
func (pt *Partition) HasSpans() bool { return len(pt.spans) == pt.workers && pt.workers > 0 }

// Range returns worker w's item-aligned share [lo, hi).
func (pt *Partition) Range(w int) (lo, hi int) { return pt.bounds[w], pt.bounds[w+1] }

// Span returns worker w's edge-exact share. Only valid when HasSpans.
func (pt *Partition) Span(w int) Span { return pt.spans[w] }

// AlignedImbalance reports the item-aligned schedule's load imbalance: the
// heaviest worker's weight over the perfectly even share (1 = exact balance).
// It is a property of the built schedule, not of a measured run, so it is
// deterministic and host-independent — the convergence ledger records it per
// level against the analytic whole-bucket lower bound. An empty partition
// reports 0.
func (pt *Partition) AlignedImbalance() float64 {
	if pt.workers == 0 || pt.total == 0 {
		return 0
	}
	prefix := pt.prefix[:pt.items+1]
	var max int64
	for w := 0; w < pt.workers; w++ {
		if d := prefix[pt.bounds[w+1]] - prefix[pt.bounds[w]]; d > max {
			max = d
		}
	}
	return float64(max) * float64(pt.workers) / float64(pt.total)
}

// Reset empties the partition (storage is kept for reuse). An empty
// partition matches no sweep.
func (pt *Partition) Reset() {
	pt.items, pt.workers, pt.total = 0, 0, 0
}

// BuildBuckets computes an edge-balanced schedule for n bucketed items:
// item x spans edges start[x]..end[x] of the edge arrays and weighs
// end[x]-start[x]+1. Both aligned ranges and edge-exact spans are built.
// The worker count is Workers(p, n); a nil pool spawns goroutines for the
// prefix passes.
func (pt *Partition) BuildBuckets(pl *Pool, p, n int, start, end []int64) {
	w := pt.buildPrefixBuckets(pl, p, n, start, end)
	pt.buildBounds(w)
	pt.buildSpans(w, start, end)
}

// BuildWeights computes an item-aligned schedule over n items where item x
// weighs weight[x]+1. No spans are built (there are no bucket boundaries to
// split at), so only Range applies. The matching worklist and contraction
// dedup use it with per-item bucket lengths.
func (pt *Partition) BuildWeights(pl *Pool, p, n int, weight []int64) {
	workers := Workers(p, n)
	pt.items, pt.workers = n, workers
	pt.prefix = growInt64(pt.prefix, n+1)
	prefix := pt.prefix
	if Serial(p, n) {
		for x := 0; x < n; x++ {
			prefix[x] = weight[x] + 1
		}
	} else {
		pl.For(p, n, func(lo, hi int) {
			for x := lo; x < hi; x++ {
				prefix[x] = weight[x] + 1
			}
		})
	}
	prefix[n] = 0
	pt.total = pl.ExclusiveSumInt64(p, prefix)
	pt.spans = pt.spans[:0]
	pt.buildBounds(workers)
}

// BuildIndexed is BuildWeights over an index list: item i weighs
// end[list[i]]-start[list[i]]+1. The matching worklist passes its packed
// active-vertex list so each pass stays degree-balanced as the list shrinks.
func (pt *Partition) BuildIndexed(pl *Pool, p int, list, start, end []int64) {
	n := len(list)
	workers := Workers(p, n)
	pt.items, pt.workers = n, workers
	pt.prefix = growInt64(pt.prefix, n+1)
	prefix := pt.prefix
	if Serial(p, n) {
		for i := 0; i < n; i++ {
			x := list[i]
			prefix[i] = end[x] - start[x] + 1
		}
	} else {
		pl.For(p, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x := list[i]
				prefix[i] = end[x] - start[x] + 1
			}
		})
	}
	prefix[n] = 0
	pt.total = pl.ExclusiveSumInt64(p, prefix)
	pt.spans = pt.spans[:0]
	pt.buildBounds(workers)
}

func (pt *Partition) buildPrefixBuckets(pl *Pool, p, n int, start, end []int64) int {
	workers := Workers(p, n)
	pt.items, pt.workers = n, workers
	pt.prefix = growInt64(pt.prefix, n+1)
	prefix := pt.prefix
	if Serial(p, n) {
		for x := 0; x < n; x++ {
			prefix[x] = end[x] - start[x] + 1
		}
	} else {
		pl.For(p, n, func(lo, hi int) {
			for x := lo; x < hi; x++ {
				prefix[x] = end[x] - start[x] + 1
			}
		})
	}
	prefix[n] = 0
	pt.total = pl.ExclusiveSumInt64(p, prefix)
	return workers
}

// buildBounds fills the item-aligned boundaries: bounds[w] is the first
// item x with prefix[x] >= total*w/workers, so consecutive targets yield
// monotone boundaries and every worker's share misses the even share by
// less than one item's weight.
func (pt *Partition) buildBounds(workers int) {
	pt.bounds = growInt(pt.bounds, workers+1)
	prefix, n := pt.prefix[:pt.items+1], pt.items
	pt.bounds[0] = 0
	for w := 1; w < workers; w++ {
		t := pt.total * int64(w) / int64(workers)
		// First x with prefix[x] >= t.
		lo, hi := 0, n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if prefix[mid] < t {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		pt.bounds[w] = lo
	}
	pt.bounds[workers] = n
}

// buildSpans places the same W-1 interior targets at exact edge offsets. A
// target t inside bucket x's edge run splits the bucket; a target on the
// bucket's trailing +1 unit canonicalizes to the start of bucket x+1, so
// no two spans ever claim the same edge and a bucket's first edge (and its
// vertex-level work, e.g. self-loop folding) belongs to exactly one span.
func (pt *Partition) buildSpans(workers int, start, end []int64) {
	if cap(pt.spans) < workers {
		pt.spans = make([]Span, workers)
	}
	pt.spans = pt.spans[:workers]
	n := pt.items
	prefix := pt.prefix[:n+1]
	bx, bo := 0, int64(0) // previous boundary: bucket index + edge offset
	for w := 0; w < workers; w++ {
		var x int
		var off int64
		if w == workers-1 {
			x, off = n, 0
		} else {
			t := pt.total * int64(w+1) / int64(workers)
			// Largest x with prefix[x] <= t, then the offset within x.
			lo, hi := 0, n
			for lo < hi {
				mid := int(uint(lo+hi+1) >> 1)
				if prefix[mid] <= t {
					lo = mid
				} else {
					hi = mid - 1
				}
			}
			x = lo
			off = t - prefix[x]
			if x < n && off >= end[x]-start[x] {
				// On the bucket's trailing unit (or past its edges):
				// canonicalize to the next bucket's start.
				x, off = x+1, 0
			}
		}
		sp := &pt.spans[w]
		switch {
		case bx >= x && bo >= off:
			sp.LoV, sp.HiV, sp.LoE, sp.HiE = bx, bx, 0, 0
		case bx == x:
			sp.LoV, sp.HiV = bx, bx+1
			sp.LoE, sp.HiE = start[bx]+bo, start[x]+off
		default:
			sp.LoV, sp.LoE = bx, start[bx]+bo
			if off > 0 {
				sp.HiV, sp.HiE = x+1, start[x]+off
			} else {
				sp.HiV, sp.HiE = x, end[x-1]
			}
		}
		bx, bo = x, off
	}
}

func growInt64(xs []int64, n int) []int64 {
	if cap(xs) < n {
		return make([]int64, n)
	}
	return xs[:n]
}

func growInt(xs []int, n int) []int {
	if cap(xs) < n {
		return make([]int, n)
	}
	return xs[:n]
}
