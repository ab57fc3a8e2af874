package par

// SumInt64 returns the sum of xs computed with p workers.
func SumInt64(p int, xs []int64) int64 {
	return (*Pool)(nil).SumInt64(p, xs)
}

// SumInt64 is the free SumInt64 running on the team; a nil pool spawns.
func (pl *Pool) SumInt64(p int, xs []int64) int64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	p = normalize(p, n)
	if p == 1 {
		var s int64
		for _, x := range xs {
			s += x
		}
		return s
	}
	partial := make([]int64, p)
	pl.ForWorker(p, n, func(w, lo, hi int) {
		var s int64
		for _, x := range xs[lo:hi] {
			s += x
		}
		partial[w] = s
	})
	var s int64
	for _, x := range partial {
		s += x
	}
	return s
}

// MaxInt64 returns the maximum element of xs and its first index, computed
// with p workers. It panics on an empty slice.
func MaxInt64(p int, xs []int64) (max int64, argmax int) {
	n := len(xs)
	if n == 0 {
		panic("par: MaxInt64 of empty slice")
	}
	p = normalize(p, n)
	type pm struct {
		v int64
		i int
	}
	partial := make([]pm, p)
	ForWorker(p, n, func(w, lo, hi int) {
		best := pm{xs[lo], lo}
		for i := lo + 1; i < hi; i++ {
			if xs[i] > best.v {
				best = pm{xs[i], i}
			}
		}
		partial[w] = best
	})
	// Workers cover increasing index ranges and each keeps its first
	// maximum, so scanning partials in worker order and replacing only on a
	// strictly larger value yields the globally first argmax regardless of p.
	best := partial[0]
	for _, c := range partial[1:] {
		if c.v > best.v {
			best = c
		}
	}
	return best.v, best.i
}
