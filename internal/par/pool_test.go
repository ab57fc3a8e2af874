package par

import (
	"sync/atomic"
	"testing"
)

// coverage checks every index in [0, n) was visited exactly once.
func checkCoverage(t *testing.T, name string, hits []int32) {
	t.Helper()
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("%s: index %d visited %d times", name, i, h)
		}
	}
}

func TestPoolForCoversRange(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()
	for _, n := range []int{0, 1, 3, 7, 100, 1023} {
		hits := make([]int32, n)
		pl.For(4, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		checkCoverage(t, "For", hits)
	}
}

func TestPoolForDynamicCoversRange(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()
	for _, n := range []int{1, 5, 64, 1000} {
		for _, grain := range []int{0, 1, 7, 2048} {
			hits := make([]int32, n)
			pl.ForDynamic(4, n, grain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			checkCoverage(t, "ForDynamic", hits)
		}
	}
}

func TestPoolForWorkerMatchesSpawnPartition(t *testing.T) {
	// The pool's static chunking must agree exactly with the spawn-based
	// ForWorker, because striped-histogram callers count and scatter in two
	// separate loops and rely on identical worker ranges.
	pl := NewPool(4)
	defer pl.Close()
	for _, n := range []int{1, 4, 5, 97, 1000} {
		type rng struct{ lo, hi int }
		want := make([]rng, 8)
		ForWorker(4, n, func(w, lo, hi int) {
			want[w] = rng{lo, hi}
		})
		got := make([]rng, 8)
		used := pl.ForWorker(4, n, func(w, lo, hi int) {
			got[w] = rng{lo, hi}
		})
		if used != Workers(4, n) {
			t.Fatalf("n=%d: used %d workers, want %d", n, used, Workers(4, n))
		}
		for w := 0; w < used; w++ {
			if got[w] != want[w] {
				t.Fatalf("n=%d worker %d: pool range %v, spawn range %v", n, w, got[w], want[w])
			}
		}
	}
}

func TestPoolForWorkerTimes(t *testing.T) {
	pl := NewPool(2)
	defer pl.Close()
	times := make([]int64, 2)
	used := pl.ForWorkerTimes(2, 100, times, func(w, lo, hi int) {
		s := 0
		for i := lo; i < hi; i++ {
			s += i
		}
		_ = s
	})
	for w := 0; w < used; w++ {
		if times[w] < 0 {
			t.Fatalf("worker %d: negative busy time %d", w, times[w])
		}
	}
}

func TestPoolClampsToCapacity(t *testing.T) {
	// A loop asking for more workers than the team holds runs on the team.
	pl := NewPool(2)
	defer pl.Close()
	var maxW int32
	pl.ForWorker(16, 1000, func(w, lo, hi int) {
		for {
			cur := atomic.LoadInt32(&maxW)
			if int32(w) <= cur || atomic.CompareAndSwapInt32(&maxW, cur, int32(w)) {
				return
			}
		}
	})
	if maxW > 1 {
		t.Fatalf("worker index %d observed on a 2-worker team", maxW)
	}
}

func TestPoolGrow(t *testing.T) {
	pl := NewPool(1)
	defer pl.Close()
	if pl.Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", pl.Workers())
	}
	pl.Grow(4)
	if pl.Workers() != 4 {
		t.Fatalf("after Grow(4): Workers() = %d, want 4", pl.Workers())
	}
	var count int64
	pl.For(4, 1000, func(lo, hi int) {
		atomic.AddInt64(&count, int64(hi-lo))
	})
	if count != 1000 {
		t.Fatalf("grown pool covered %d of 1000 iterations", count)
	}
}

func TestNilPoolFallsBackToSpawn(t *testing.T) {
	var pl *Pool
	var count int64
	pl.For(4, 100, func(lo, hi int) {
		atomic.AddInt64(&count, int64(hi-lo))
	})
	if count != 100 {
		t.Fatalf("nil pool For covered %d of 100", count)
	}
	if pl.Workers() != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", pl.Workers())
	}
	pl.Close() // must not panic
	pl.Grow(8) // must not panic
}

func TestPoolHelpersMatchFree(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()

	xs := make([]int64, 10000)
	for i := range xs {
		xs[i] = int64(i % 17)
	}
	if got, want := pl.SumInt64(4, xs), SumInt64(1, xs); got != want {
		t.Fatalf("pool SumInt64 = %d, free = %d", got, want)
	}

	scanPool := append([]int64(nil), xs...)
	scanFree := append([]int64(nil), xs...)
	tp := pl.ExclusiveSumInt64(4, scanPool)
	tf := ExclusiveSumInt64(1, scanFree)
	if tp != tf {
		t.Fatalf("pool scan total = %d, free = %d", tp, tf)
	}
	for i := range scanPool {
		if scanPool[i] != scanFree[i] {
			t.Fatalf("scan[%d]: pool %d, free %d", i, scanPool[i], scanFree[i])
		}
	}

	workers, k := 4, 100
	stripes := make([]int64, workers*k)
	for i := range stripes {
		stripes[i] = int64(i % 7)
	}
	wantDst := make([]int64, k)
	(*Pool)(nil).MergeStripes(1, stripes, workers, k, wantDst)
	gotDst := make([]int64, k)
	pl.MergeStripes(4, stripes, workers, k, gotDst)
	for c := 0; c < k; c++ {
		if gotDst[c] != wantDst[c] {
			t.Fatalf("MergeStripes[%d]: pool %d, nil pool %d", c, gotDst[c], wantDst[c])
		}
	}

	keep := make([]int64, 1000)
	for i := range keep {
		if i%3 == 0 {
			keep[i] = 1
		}
	}
	want := (*Pool)(nil).PackIndexInto(1, len(keep), keep, nil, nil)
	got := pl.PackIndexInto(4, len(keep), keep, nil, nil)
	if len(got) != len(want) {
		t.Fatalf("PackIndexInto lengths: pool %d, nil pool %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("PackIndexInto[%d]: pool %d, nil pool %d", i, got[i], want[i])
		}
	}
}

func TestPoolReusableAcrossManyLoops(t *testing.T) {
	// The whole point: thousands of tiny loops on one team. Under -race this
	// also exercises the wake/done handoff heavily.
	pl := NewPool(3)
	defer pl.Close()
	var total int64
	for iter := 0; iter < 2000; iter++ {
		pl.For(3, 17, func(lo, hi int) {
			atomic.AddInt64(&total, int64(hi-lo))
		})
	}
	if total != 2000*17 {
		t.Fatalf("total = %d, want %d", total, 2000*17)
	}
}
