package par

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 4097} {
		for _, p := range []int{0, 1, 2, 3, 8, 200} {
			seen := make([]int32, n)
			For(p, n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d p=%d: index %d visited %d times", n, p, i, c)
				}
			}
		}
	}
}

func TestForDynamicCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 5, 1000, 4099} {
		for _, p := range []int{0, 1, 4, 16} {
			for _, grain := range []int{0, 1, 7, 1024} {
				seen := make([]int32, n)
				ForDynamic(p, n, grain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&seen[i], 1)
					}
				})
				for i, c := range seen {
					if c != 1 {
						t.Fatalf("n=%d p=%d grain=%d: index %d visited %d times", n, p, grain, i, c)
					}
				}
			}
		}
	}
}

func TestForWorkerIndices(t *testing.T) {
	const n = 1000
	p := 4
	used := make([]int32, p)
	got := ForWorker(p, n, func(w, lo, hi int) {
		atomic.AddInt32(&used[w], int32(hi-lo))
	})
	if got != p {
		t.Fatalf("ForWorker used %d workers, want %d", got, p)
	}
	var total int32
	for _, u := range used {
		total += u
	}
	if total != n {
		t.Fatalf("workers covered %d iterations, want %d", total, n)
	}
}

func TestDoRunsAll(t *testing.T) {
	var a, b, c atomic.Int32
	Do(func() { a.Store(1) }, func() { b.Store(2) }, func() { c.Store(3) })
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Fatalf("Do did not run all functions: %d %d %d", a.Load(), b.Load(), c.Load())
	}
	Do(func() { a.Store(9) }) // single-function fast path
	if a.Load() != 9 {
		t.Fatal("Do single function did not run")
	}
}

func TestSumInt64MatchesSequential(t *testing.T) {
	f := func(xs []int64) bool {
		var want int64
		for _, x := range xs {
			want += x
		}
		for _, p := range []int{1, 2, 7} {
			if got := SumInt64(p, xs); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxInt64(t *testing.T) {
	xs := []int64{3, 9, 2, 9, 1}
	v, i := MaxInt64(4, xs)
	if v != 9 || i != 1 {
		t.Fatalf("MaxInt64 = (%d, %d), want (9, 1)", v, i)
	}
	v, i = MaxInt64(1, []int64{-5})
	if v != -5 || i != 0 {
		t.Fatalf("MaxInt64 single = (%d, %d)", v, i)
	}
}

func TestMaxInt64ArgmaxIndependentOfWorkers(t *testing.T) {
	r := NewRNG(7)
	xs := make([]int64, 50000)
	for i := range xs {
		xs[i] = r.Int63n(1000)
	}
	wantV, wantI := MaxInt64(1, xs)
	for _, p := range []int{2, 3, 8, 16} {
		v, i := MaxInt64(p, xs)
		if v != wantV || i != wantI {
			t.Fatalf("p=%d: (%d,%d) != (%d,%d)", p, v, i, wantV, wantI)
		}
	}
}

func TestExclusiveSumInt64Small(t *testing.T) {
	xs := []int64{3, 1, 4, 1, 5}
	total := ExclusiveSumInt64(4, xs)
	want := []int64{0, 3, 4, 8, 9}
	if total != 14 {
		t.Fatalf("total = %d, want 14", total)
	}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("xs[%d] = %d, want %d", i, xs[i], want[i])
		}
	}
}

func TestExclusiveSumInt64LargeMatchesSequential(t *testing.T) {
	r := NewRNG(42)
	n := 100003
	orig := make([]int64, n)
	for i := range orig {
		orig[i] = r.Int63n(10)
	}
	want := make([]int64, n)
	copy(want, orig)
	wantTotal := ExclusiveSumInt64(1, want)
	for _, p := range []int{2, 5, 16} {
		xs := make([]int64, n)
		copy(xs, orig)
		total := ExclusiveSumInt64(p, xs)
		if total != wantTotal {
			t.Fatalf("p=%d: total %d != %d", p, total, wantTotal)
		}
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("p=%d: xs[%d] = %d, want %d", p, i, xs[i], want[i])
			}
		}
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(124)
	same := 0
	a.Seed(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / 100000
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(9)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(10)]++
	}
	for d, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("digit %d count %d outside [9000,11000]", d, c)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm invalid at value %d", v)
		}
		seen[v] = true
	}
}

func TestRNGPanics(t *testing.T) {
	r := NewRNG(1)
	for _, fn := range []func(){
		func() { r.Intn(0) },
		func() { r.Int63n(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSplitSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := SplitSeed(77, i)
		if seen[s] {
			t.Fatalf("SplitSeed collision at stream %d", i)
		}
		seen[s] = true
	}
}

func TestSpinLocksMutualExclusion(t *testing.T) {
	locks := NewSpinLocks(4)
	if locks.Len() != 4 {
		t.Fatalf("Len = %d", locks.Len())
	}
	var counter int64
	const iters = 2000
	For(8, 8, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			for i := 0; i < iters; i++ {
				locks.Lock(2)
				counter++ // protected by lock 2
				locks.Unlock(2)
			}
		}
	})
	if counter != 8*iters {
		t.Fatalf("counter = %d, want %d", counter, 8*iters)
	}
}

func TestSpinLocksTryLock(t *testing.T) {
	locks := NewSpinLocks(2)
	if !locks.TryLock(0) {
		t.Fatal("TryLock on free lock failed")
	}
	if locks.TryLock(0) {
		t.Fatal("TryLock on held lock succeeded")
	}
	locks.Unlock(0)
	if !locks.TryLock(0) {
		t.Fatal("TryLock after unlock failed")
	}
	locks.Unlock(0)
}

func TestSpinLocksLock2Ordering(t *testing.T) {
	locks := NewSpinLocks(16)
	cells := make([]int64, 16)
	// Hammer overlapping pairs from many goroutines; ordered acquisition
	// must not deadlock and must serialize access to the two locked cells.
	For(8, 8, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			r := NewRNG(uint64(w))
			for i := 0; i < 500; i++ {
				a := int64(r.Intn(16))
				b := int64(r.Intn(15))
				if b >= a {
					b++
				}
				locks.Lock2(a, b)
				cells[a]++
				cells[b]++
				locks.Unlock2(a, b)
			}
		}
	})
	var total int64
	for _, c := range cells {
		total += c
	}
	if total != 2*8*500 {
		t.Fatalf("total = %d, want %d", total, 2*8*500)
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	r := NewRNG(11)
	for _, n := range []int{0, 1, 2, 100, 8192, 100000} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = r.Int63n(1000)
		}
		want := make([]int64, n)
		copy(want, xs)
		Sort(1, want, func(a, b int64) bool { return a < b })
		for _, p := range []int{2, 3, 8} {
			got := make([]int64, n)
			copy(got, xs)
			Sort(p, got, func(a, b int64) bool { return a < b })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d p=%d: got[%d]=%d want %d", n, p, i, got[i], want[i])
				}
			}
		}
	}
}

func TestSortProperty(t *testing.T) {
	f := func(xs []int32, pRaw uint8) bool {
		p := int(pRaw%8) + 1
		ys := make([]int32, len(xs))
		copy(ys, xs)
		Sort(p, ys, func(a, b int32) bool { return a < b })
		if len(ys) != len(xs) {
			return false
		}
		for i := 1; i < len(ys); i++ {
			if ys[i-1] > ys[i] {
				return false
			}
		}
		// Same multiset: count occurrences.
		count := map[int32]int{}
		for _, x := range xs {
			count[x]++
		}
		for _, y := range ys {
			count[y]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalize(t *testing.T) {
	if got := normalize(0, 10); got != DefaultThreads() && got != 10 {
		// normalize clamps to min(DefaultThreads, n)
		t.Fatalf("normalize(0,10) = %d", got)
	}
	if got := normalize(100, 3); got != 3 {
		t.Fatalf("normalize(100,3) = %d, want 3", got)
	}
	if got := normalize(-1, 1); got != 1 {
		t.Fatalf("normalize(-1,1) = %d, want 1", got)
	}
}

func TestPack(t *testing.T) {
	src := []int64{10, 20, 30, 40, 50}
	keep := []int64{1, 0, 1, 0, 1}
	for _, p := range []int{1, 2, 4} {
		got := PackIntoWith(nil, p, src, keep, nil, nil)
		want := []int64{10, 30, 50}
		if len(got) != len(want) {
			t.Fatalf("p=%d: got %v", p, got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d: got %v, want %v", p, got, want)
			}
		}
	}
	if out := PackIntoWith(nil, 2, []int64{}, []int64{}, nil, nil); out != nil {
		t.Fatal("empty pack should be nil")
	}
	if out := PackIntoWith(nil, 2, src, []int64{0, 0, 0, 0, 0}, nil, nil); len(out) != 0 {
		t.Fatalf("all-drop pack returned %v", out)
	}
}

func TestPackMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PackIntoWith(nil, 1, []int64{1, 2}, []int64{1}, nil, nil)
}

func TestPackLargeMatchesSequential(t *testing.T) {
	r := NewRNG(6)
	n := 50000
	src := make([]int, n)
	keep := make([]int64, n)
	for i := range src {
		src[i] = i
		if r.Float64() < 0.3 {
			keep[i] = 1
		}
	}
	want := PackIntoWith(nil, 1, src, keep, nil, nil)
	got := PackIntoWith(nil, 8, src, keep, nil, nil)
	if len(want) != len(got) {
		t.Fatalf("length %d != %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("index %d: %d != %d", i, got[i], want[i])
		}
	}
}
