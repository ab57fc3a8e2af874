package main

import "sort"

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method):
// the lower quartile, the median and the upper quartile. A single sample
// is all three; no samples give zeros.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func median(xs []float64) float64 { return quartiles(xs)[1] }

// tail returns the highest of the 90th, 99th and 99.9th percentiles
// (nearest rank) that has at least ten samples beyond it; ok is false when
// none has, that is below 100 samples.
func tail(xs []float64) (perMille int, v float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range []int{999, 990, 900} {
		rank := (p*n + 999) / 1000
		if n-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}

// ratio is a/b, or 0 when b is 0 (a layer the op did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// slot gives the thread count and tracing of the i-th measured op.
// Untraced runs interleave one 1-thread op between two 2-thread ops
// (2,1,2, 2,1,2, ...), so each 1-thread op is timed beside two 2-thread
// ops under the same host conditions; traced runs alternate untraced and
// traced 2-thread ops. A run ends only on a whole period.
func slot(i int, trace bool) (threads int, traced bool) {
	switch {
	case trace:
		return maxThreads, i%2 == 1
	case i%3 == 1:
		return 1, false
	}
	return maxThreads, false
}

// period is the length of slot's repeating pattern.
func period(trace bool) int {
	if trace {
		return 2
	}
	return 3
}
