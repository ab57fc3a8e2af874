// Package par provides the threading substrate for the community detection
// library: parallel loops with static and dynamic scheduling, reductions,
// prefix sums, a parallel sort, deterministic splittable random number
// streams, and light-weight per-element spinlocks.
//
// The paper targets the Cray XMT (implicit massive threading with
// full/empty-bit synchronization) and OpenMP (explicit work-sharing loops
// with lock arrays). This package plays the role of both runtimes: loops map
// to goroutine workers over GOMAXPROCS, and the XMT's full/empty claim
// protocol is emulated with compare-and-swap spinlocks exactly as the
// paper's OpenMP port does with lock arrays.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultThreads returns the worker count used when a caller passes p <= 0:
// the current GOMAXPROCS setting.
func DefaultThreads() int {
	return runtime.GOMAXPROCS(0)
}

// normalize clamps a requested worker count to [1, n] for a loop of n
// iterations (never more workers than iterations, never less than one).
func normalize(p, n int) int {
	if p <= 0 {
		p = DefaultThreads()
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// For runs body over the index range [0, n) using p workers with static
// contiguous partitioning. Each worker receives one [lo, hi) chunk. body
// must be safe to call concurrently. p <= 0 selects DefaultThreads().
//
// Static partitioning is the analogue of an OpenMP "schedule(static)"
// work-sharing loop and suits uniform per-iteration cost.
func For(p, n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p = normalize(p, n)
	if p == 1 {
		body(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := n / p
	rem := n % p
	lo := 0
	for w := 0; w < p; w++ {
		hi := lo + chunk
		if w < rem {
			hi++
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// ForDynamic runs body over [0, n) using p workers that repeatedly grab
// grain-sized chunks from a shared atomic counter. It is the analogue of an
// OpenMP "schedule(dynamic, grain)" loop and suits irregular per-iteration
// cost such as power-law vertex degrees. grain <= 0 selects a heuristic
// grain of roughly n/(8p) clamped to [1, 4096].
func ForDynamic(p, n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	p = normalize(p, n)
	if grain <= 0 {
		grain = n / (8 * p)
		if grain < 1 {
			grain = 1
		}
		if grain > 4096 {
			grain = 4096
		}
	}
	if p == 1 {
		body(0, n)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(int64(grain))) - grain
				if lo >= n {
					return
				}
				hi := lo + grain
				if hi > n {
					hi = n
				}
				body(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// ForWorker is like For but also passes the worker index (0..p-1) so the
// body can use per-worker scratch space or random streams without false
// sharing. It reports the worker count actually used.
func ForWorker(p, n int, body func(worker, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	p = normalize(p, n)
	if p == 1 {
		body(0, 0, n)
		return 1
	}
	var wg sync.WaitGroup
	chunk := n / p
	rem := n % p
	lo := 0
	for w := 0; w < p; w++ {
		hi := lo + chunk
		if w < rem {
			hi++
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			body(w, lo, hi)
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
	return p
}

// ForWorkerTimes is ForWorker with per-worker busy-time accounting: when
// times is non-nil and holds at least the used worker count, times[w]
// accumulates the nanoseconds worker w spent inside body. The difference
// between the slowest and the mean stripe is the spawn/wait imbalance of the
// region — the quantity the observability layer reports per parallel region.
// A nil times behaves exactly like ForWorker.
func ForWorkerTimes(p, n int, times []int64, body func(worker, lo, hi int)) int {
	if n <= 0 {
		return 0
	}
	p = normalize(p, n)
	if times == nil {
		return ForWorker(p, n, body)
	}
	if p == 1 {
		t0 := time.Now()
		body(0, 0, n)
		times[0] += time.Since(t0).Nanoseconds()
		return 1
	}
	var wg sync.WaitGroup
	chunk := n / p
	rem := n % p
	lo := 0
	for w := 0; w < p; w++ {
		hi := lo + chunk
		if w < rem {
			hi++
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			t0 := time.Now()
			body(w, lo, hi)
			times[w] += time.Since(t0).Nanoseconds()
		}(w, lo, hi)
		lo = hi
	}
	wg.Wait()
	return p
}

// Do runs the given functions concurrently and waits for all of them.
func Do(fns ...func()) {
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func(f func()) {
			defer wg.Done()
			f()
		}(fn)
	}
	wg.Wait()
}

// PackInto copies the elements of src whose keep flag is nonzero into dst,
// preserving order, using p workers: a prefix sum over the flags computes
// each survivor's output slot, then a scatter pass copies. This is the
// stream-compaction primitive behind the matching worklist (§IV-B), where
// each pass retains only the still-unmatched vertices. slots is the
// prefix-sum workspace (grown if shorter than src) and dst receives the
// survivors (reused if its capacity suffices). Either may be nil for fresh
// allocations. It returns the packed slice, which aliases dst's storage
// when that was reused. src and dst must not overlap.
func PackInto[T any](p int, src []T, keep, slots []int64, dst []T) []T {
	return PackIntoWith(nil, p, src, keep, slots, dst)
}

// PackIntoWith is PackInto running on a worker team; a nil pool spawns. It
// is a free function rather than a *Pool method only because methods cannot
// be generic.
func PackIntoWith[T any](pl *Pool, p int, src []T, keep, slots []int64, dst []T) []T {
	n := len(src)
	if n != len(keep) {
		panic("par: Pack flag slice length mismatch")
	}
	if n == 0 {
		return dst[:0]
	}
	if cap(slots) < n {
		slots = make([]int64, n)
	}
	slots = slots[:n]
	if Serial(p, n) {
		// Closure-free single pass: count, size, then copy.
		var total int64
		for i := 0; i < n; i++ {
			if keep[i] != 0 {
				total++
			}
		}
		if int64(cap(dst)) < total {
			dst = make([]T, total)
		}
		dst = dst[:total]
		var out int64
		for i := 0; i < n; i++ {
			if keep[i] != 0 {
				dst[out] = src[i]
				out++
			}
		}
		return dst
	}
	pl.For(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if keep[i] != 0 {
				slots[i] = 1
			} else {
				slots[i] = 0
			}
		}
	})
	total := pl.ExclusiveSumInt64(p, slots)
	if int64(cap(dst)) < total {
		dst = make([]T, total)
	}
	dst = dst[:total]
	pl.For(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if keep[i] != 0 {
				dst[slots[i]] = src[i]
			}
		}
	})
	return dst
}

// PackIndexInto writes the indices i in [0, n) with keep[i] != 0 into dst in
// increasing order, using the same prefix-sum-and-scatter pattern as Pack
// but without materializing an identity source slice. slots and dst follow
// PackInto's scratch conventions. The matching worklist uses it to build the
// initial active-vertex list in parallel.
func PackIndexInto(p, n int, keep, slots, dst []int64) []int64 {
	return (*Pool)(nil).PackIndexInto(p, n, keep, slots, dst)
}

// PackIndexInto is the free PackIndexInto running on the team; a nil pool
// spawns.
func (pl *Pool) PackIndexInto(p, n int, keep, slots, dst []int64) []int64 {
	if n > len(keep) {
		panic("par: PackIndexInto flag slice too short")
	}
	if n == 0 {
		return dst[:0]
	}
	if cap(slots) < n {
		slots = make([]int64, n)
	}
	slots = slots[:n]
	if Serial(p, n) {
		var total int64
		for i := 0; i < n; i++ {
			if keep[i] != 0 {
				total++
			}
		}
		if int64(cap(dst)) < total {
			dst = make([]int64, total)
		}
		dst = dst[:total]
		var out int64
		for i := 0; i < n; i++ {
			if keep[i] != 0 {
				dst[out] = int64(i)
				out++
			}
		}
		return dst
	}
	pl.For(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if keep[i] != 0 {
				slots[i] = 1
			} else {
				slots[i] = 0
			}
		}
	})
	total := pl.ExclusiveSumInt64(p, slots)
	if int64(cap(dst)) < total {
		dst = make([]int64, total)
	}
	dst = dst[:total]
	pl.For(p, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if keep[i] != 0 {
				dst[slots[i]] = int64(i)
			}
		}
	})
	return dst
}
