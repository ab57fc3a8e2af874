package par

// ExclusiveSumInt64 replaces xs with its exclusive prefix sum (xs[i] becomes
// the sum of the original xs[0:i]) and returns the total sum of the original
// slice. The scan is the synchronization primitive the paper uses to lay
// contraction buckets out contiguously (§IV-C).
//
// The parallel variant is the classic three-pass blocked scan: per-block
// sums, a sequential scan over block sums, then per-block local scans offset
// by the block prefix.
func ExclusiveSumInt64(p int, xs []int64) int64 {
	return (*Pool)(nil).ExclusiveSumInt64(p, xs)
}

// ExclusiveSumInt64 is the free ExclusiveSumInt64 running on the team; a nil
// pool spawns.
func (pl *Pool) ExclusiveSumInt64(p int, xs []int64) int64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	p = normalize(p, n)
	// The blocked scan only pays off when blocks are large enough to
	// amortize goroutine startup.
	if p == 1 || n < 4096 {
		var run int64
		for i := range xs {
			v := xs[i]
			xs[i] = run
			run += v
		}
		return run
	}
	// ForWorker recomputes the same static partition for the same (p, n), so
	// block w sees the same [lo, hi) in both passes.
	blockSum := make([]int64, p)
	pl.ForWorker(p, n, func(w, lo, hi int) {
		var s int64
		for _, x := range xs[lo:hi] {
			s += x
		}
		blockSum[w] = s
	})
	var total int64
	for w := 0; w < p; w++ {
		s := blockSum[w]
		blockSum[w] = total
		total += s
	}
	pl.ForWorker(p, n, func(w, lo, hi int) {
		run := blockSum[w]
		for i := lo; i < hi; i++ {
			v := xs[i]
			xs[i] = run
			run += v
		}
	})
	return total
}
