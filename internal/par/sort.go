package par

import "sort"

// Sort sorts s with p workers using a merge sort over statically
// partitioned runs: each worker sorts its run with the standard library,
// then runs are merged pairwise in a parallel tree. less must be a strict
// weak ordering. The sort is not stable.
//
// Graph construction does not sort: graph.Build orders its input edges with a
// counting placement. Sort serves the remaining comparison orders, such as
// the SᵀAS sparse product's triples and test references.
func Sort[T any](p int, s []T, less func(a, b T) bool) {
	n := len(s)
	if n < 2 {
		return
	}
	p = normalize(p, n)
	// Below this size the merge machinery costs more than it saves.
	if p == 1 || n < 8192 {
		sort.Slice(s, func(i, j int) bool { return less(s[i], s[j]) })
		return
	}
	// Round the run count down to a power of two so the merge tree is a
	// complete binary tree.
	runs := 1
	for runs*2 <= p {
		runs *= 2
	}
	bounds := make([]int, runs+1)
	for i := 0; i <= runs; i++ {
		bounds[i] = i * n / runs
	}
	For(runs, runs, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			run := s[bounds[r]:bounds[r+1]]
			sort.Slice(run, func(i, j int) bool { return less(run[i], run[j]) })
		}
	})
	buf := make([]T, n)
	src, dst := s, buf
	for width := 1; width < runs; width *= 2 {
		type job struct{ lo, mid, hi int }
		var jobs []job
		for r := 0; r < runs; r += 2 * width {
			lo := bounds[r]
			mid := bounds[min(r+width, runs)]
			hi := bounds[min(r+2*width, runs)]
			jobs = append(jobs, job{lo, mid, hi})
		}
		For(len(jobs), len(jobs), func(jlo, jhi int) {
			for _, j := range jobs[jlo:jhi] {
				mergeRuns(dst[j.lo:j.hi], src[j.lo:j.mid], src[j.mid:j.hi], less)
			}
		})
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// mergeRuns merges sorted runs a and b into out (len(out) == len(a)+len(b)).
func mergeRuns[T any](out, a, b []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}
