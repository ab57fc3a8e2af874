package par

// This file holds the striped-histogram primitives behind the
// zero-allocation contraction path: instead of one atomic fetch-and-add per
// edge into a shared counter array (which serializes on high-degree
// communities), each worker counts into its own private stripe of the
// histogram, and a parallel reduction over worker×bucket merges the stripes
// — the radix-partition pattern. The merge also yields contention-free
// per-worker write cursors for the subsequent scatter pass.

// Workers reports the worker count a static par loop over n iterations uses
// for a requested parallelism p: p clamped to [1, n], with p <= 0 selecting
// DefaultThreads. Callers sizing per-worker stripes use it to agree with
// ForWorker on the stripe count.
func Workers(p, n int) int {
	return normalize(p, n)
}

// Serial reports whether a par loop over n iterations at parallelism p runs
// on the calling goroutine. Hot kernels use it to take a closure-free serial
// path: a closure literal handed to For escapes (the goroutine path keeps
// it alive), so it heap-allocates at creation even when the loop then runs
// serially, and the zero-allocation steady state needs those sites to skip
// closure creation entirely.
func Serial(p, n int) bool {
	return n <= 0 || normalize(p, n) == 1
}

// ZeroInt64 zeroes xs with p workers. Reused scratch histograms must be
// cleared before counting into them; for large stripes the parallel clear
// matters.
func ZeroInt64(p int, xs []int64) {
	(*Pool)(nil).ZeroInt64(p, xs)
}

// ZeroInt64 is the free ZeroInt64 running on the team; a nil pool spawns.
func (pl *Pool) ZeroInt64(p int, xs []int64) {
	if Serial(p, len(xs)) {
		clear(xs)
		return
	}
	pl.For(p, len(xs), func(lo, hi int) {
		clear(xs[lo:hi])
	})
}

// MergeStripes reduces a striped histogram into dst: stripes holds workers
// consecutive stripes of length k (worker w's counter for bucket c at
// stripes[w*k+c]) and dst[c] receives Σ_w stripes[w*k+c]. The reduction is
// parallel over buckets, so no two workers write the same dst entry. dst
// entries are overwritten, not accumulated. It runs on the team; a nil pool
// spawns.
func (pl *Pool) MergeStripes(p int, stripes []int64, workers, k int, dst []int64) {
	if len(stripes) < workers*k {
		panic("par: MergeStripes stripe slice too short")
	}
	if len(dst) < k {
		panic("par: MergeStripes dst too short")
	}
	if Serial(p, k) {
		for c := 0; c < k; c++ {
			var s int64
			for w := 0; w < workers; w++ {
				s += stripes[w*k+c]
			}
			dst[c] = s
		}
		return
	}
	pl.For(p, k, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			var s int64
			for w := 0; w < workers; w++ {
				s += stripes[w*k+c]
			}
			dst[c] = s
		}
	})
}

// StripeOffsets converts a striped histogram into per-(worker, bucket)
// exclusive write offsets and per-bucket totals: stripes[w*k+c] becomes
// Σ_{w'<w} stripes[w'*k+c] and totals[c] (when non-nil) receives the full
// per-bucket sum. A worker that counted stripes[w*k+c] items into bucket c
// may then write them at positions base(c) + stripes[w*k+c] ... without any
// synchronization, because the buckets' worker sub-ranges are disjoint.
func StripeOffsets(p int, stripes []int64, workers, k int, totals []int64) {
	(*Pool)(nil).StripeOffsets(p, stripes, workers, k, totals)
}

// StripeOffsets is the free StripeOffsets running on the team; a nil pool
// spawns.
func (pl *Pool) StripeOffsets(p int, stripes []int64, workers, k int, totals []int64) {
	if len(stripes) < workers*k {
		panic("par: StripeOffsets stripe slice too short")
	}
	if totals != nil && len(totals) < k {
		panic("par: StripeOffsets totals too short")
	}
	if Serial(p, k) {
		for c := 0; c < k; c++ {
			var run int64
			for w := 0; w < workers; w++ {
				v := stripes[w*k+c]
				stripes[w*k+c] = run
				run += v
			}
			if totals != nil {
				totals[c] = run
			}
		}
		return
	}
	pl.For(p, k, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			var run int64
			for w := 0; w < workers; w++ {
				v := stripes[w*k+c]
				stripes[w*k+c] = run
				run += v
			}
			if totals != nil {
				totals[c] = run
			}
		}
	})
}

// StripeCursors turns StripeOffsets' per-(worker, bucket) exclusive offsets
// into absolute write cursors: stripes[w*k+c] += bases[c], where bases[c] is
// bucket c's first write position. A scatter pass then stores at
// stripes[w*k+c]++ without loading the bucket base per item. The pass is
// parallel over buckets, so no two workers write the same stripe entry.
func StripeCursors(p int, stripes []int64, workers, k int, bases []int64) {
	(*Pool)(nil).StripeCursors(p, stripes, workers, k, bases)
}

// StripeCursors is the free StripeCursors running on the team; a nil pool
// spawns.
func (pl *Pool) StripeCursors(p int, stripes []int64, workers, k int, bases []int64) {
	if len(stripes) < workers*k {
		panic("par: StripeCursors stripe slice too short")
	}
	if len(bases) < k {
		panic("par: StripeCursors bases too short")
	}
	if Serial(p, k) {
		addStripeBases(stripes, workers, k, bases, 0, k)
		return
	}
	pl.For(p, k, func(lo, hi int) {
		addStripeBases(stripes, workers, k, bases, lo, hi)
	})
}

// addStripeBases adds bases[c] to every worker's stripe entry for buckets
// [lo, hi).
func addStripeBases(stripes []int64, workers, k int, bases []int64, lo, hi int) {
	for w := 0; w < workers; w++ {
		cur, b := stripes[w*k+lo:w*k+hi], bases[lo:hi]
		for c := range cur {
			cur[c] += b[c]
		}
	}
}
