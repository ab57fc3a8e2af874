package exec

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/par"
)

func TestBackgroundCachedAndImmutable(t *testing.T) {
	a := Background(2)
	b := Background(2)
	if a != b {
		t.Fatal("Background(2) not cached")
	}
	if a.Threads() != 2 || a.Recorder() != nil || a.Err() != nil {
		t.Fatal("Background context misconfigured")
	}
	big := Background(maxBackground + 5)
	if big.Threads() != maxBackground+5 {
		t.Fatalf("Threads = %d", big.Threads())
	}
}

func TestBackgroundLoopsFallBackToSpawn(t *testing.T) {
	c := Background(4)
	var n int64
	c.For(100, func(lo, hi int) { atomic.AddInt64(&n, int64(hi-lo)) })
	if n != 100 {
		t.Fatalf("For covered %d of 100", n)
	}
	var dyn int64
	c.ForDynamic(100, 7, func(lo, hi int) { atomic.AddInt64(&dyn, int64(hi-lo)) })
	if dyn != 100 {
		t.Fatalf("ForDynamic covered %d of 100", dyn)
	}
}

func TestNewPooledLoops(t *testing.T) {
	c := New(context.Background(), 4, nil)
	defer c.Close()
	var n int64
	for i := 0; i < 100; i++ {
		c.For(997, func(lo, hi int) { atomic.AddInt64(&n, int64(hi-lo)) })
	}
	if n != 100*997 {
		t.Fatalf("pooled For covered %d, want %d", n, 100*997)
	}
	times := make([]int64, 4)
	used := c.ForWorkerTimes(1000, times, func(w, lo, hi int) {})
	if used < 1 {
		t.Fatalf("used = %d", used)
	}
}

func TestWithThreadsSharesTeam(t *testing.T) {
	c := New(context.Background(), 2, nil)
	defer c.Close()
	w := c.WithThreads(4) // grows the shared team
	if w.Threads() != 4 {
		t.Fatalf("Threads = %d", w.Threads())
	}
	var n int64
	w.For(1000, func(lo, hi int) { atomic.AddInt64(&n, int64(hi-lo)) })
	if n != 1000 {
		t.Fatalf("covered %d", n)
	}
	// The original width is untouched.
	if c.Threads() != 2 {
		t.Fatalf("original Threads = %d", c.Threads())
	}
}

func TestWithContextAndRecorder(t *testing.T) {
	// A context built with a recorder and a cancellable context carries
	// both, and cancelling it leaves the cached Background untouched.
	rec := obs.New()
	ctx, cancel := context.WithCancel(context.Background())
	c := New(ctx, 1, rec)
	defer c.Close()
	if c.Recorder() != rec {
		t.Fatal("recorder not attached")
	}
	if c.Err() != nil {
		t.Fatal("premature cancellation")
	}
	cancel()
	if c.Err() == nil {
		t.Fatal("cancellation not visible")
	}
	bg := Background(1)
	if bg.Err() != nil || bg.Recorder() != nil {
		t.Fatal("cancellation mutated the cached Background context")
	}
}

func TestAcquireReleaseReusesCtx(t *testing.T) {
	a := Acquire(nil, 2, nil)
	a.Release()
	b := Acquire(nil, 2, nil)
	defer b.Release()
	if a != b {
		t.Fatal("Release/Acquire did not reuse the context")
	}
	var n int64
	b.For(100, func(lo, hi int) { atomic.AddInt64(&n, int64(hi-lo)) })
	if n != 100 {
		t.Fatalf("reused ctx covered %d", n)
	}
}

func TestAcquireGrowsReusedTeam(t *testing.T) {
	a := Acquire(nil, 2, nil)
	a.Release()
	b := Acquire(nil, 6, nil)
	defer b.Release()
	var n int64
	b.For(10000, func(lo, hi int) { atomic.AddInt64(&n, int64(hi-lo)) })
	if n != 10000 {
		t.Fatalf("grown ctx covered %d", n)
	}
}

func TestAcquireSerialSteadyStateAllocFree(t *testing.T) {
	// Detect at Threads=1 acquires and releases per call; the free-list must
	// make that allocation-free once warm.
	allocs := testing.AllocsPerRun(50, func() {
		c := Acquire(context.Background(), 1, nil)
		if !c.Serial(10) {
			t.Fatal("Threads=1 should be serial")
		}
		c.Release()
	})
	if allocs != 0 {
		t.Fatalf("Acquire/Release allocated %.1f times per run", allocs)
	}
}

func TestSetPartitionLifecycle(t *testing.T) {
	c := Acquire(nil, 3, nil)
	start := []int64{0, 10, 20, 30}
	end := []int64{10, 20, 30, 40}
	var pt par.Partition
	c.BuildBuckets(&pt, 4, start, end)
	c.SetPartition(&pt)
	if c.Partition() != &pt {
		t.Fatal("SetPartition did not install")
	}
	if got := c.Balanced(4, 40); got != &pt {
		t.Fatalf("Balanced(4, 40) = %v, want the installed partition", got)
	}
	// A mismatched item count or edge total means the partition belongs to
	// some other level: the kernel must fall back to dynamic scheduling.
	if c.Balanced(5, 40) != nil || c.Balanced(4, 39) != nil {
		t.Fatal("Balanced accepted a stale partition")
	}
	c.Release()
	if c2 := Acquire(nil, 3, nil); c2.Partition() != nil {
		c2.Release()
		t.Fatal("Release leaked the partition into the next acquire")
	} else {
		c2.Release()
	}
}

func TestSetPartitionNoOpOnBackground(t *testing.T) {
	c := Background(2)
	var pt par.Partition
	pt.BuildBuckets(nil, 2, 2, []int64{0, 5}, []int64{5, 10})
	c.SetPartition(&pt)
	if c.Partition() != nil {
		t.Fatal("cached Background context accepted a partition")
	}
	// A derived view is private and may carry one.
	v := c.WithThreads(2)
	defer v.Close()
	v.SetPartition(&pt)
	if v.Partition() != &pt {
		t.Fatal("derived view rejected the partition")
	}
	if c.Partition() != nil {
		t.Fatal("view's partition leaked into the cached context")
	}
}

func TestForRangesAndSpansCover(t *testing.T) {
	c := Acquire(nil, 4, obs.New())
	defer c.Release()
	n := 100
	start := make([]int64, n)
	end := make([]int64, n)
	var cur int64
	for x := 0; x < n; x++ {
		start[x] = cur
		cur += int64(1 + x%7)
		end[x] = cur
	}
	var pt par.Partition
	c.BuildBuckets(&pt, n, start, end)

	var items int64
	c.ForRanges("test/ranges", &pt, func(lo, hi int) {
		atomic.AddInt64(&items, int64(hi-lo))
	})
	if items != int64(n) {
		t.Fatalf("ForRanges covered %d of %d items", items, n)
	}

	var edges int64
	c.ForSpans("test/spans", &pt, func(_ int, sp par.Span) {
		for x := sp.LoV; x < sp.HiV; x++ {
			elo, ehi := start[x], end[x]
			if x == sp.LoV {
				elo = sp.LoE
			}
			if x == sp.HiV-1 {
				ehi = sp.HiE
			}
			atomic.AddInt64(&edges, ehi-elo)
		}
	})
	if edges != cur {
		t.Fatalf("ForSpans covered %d of %d edges", edges, cur)
	}

	prof := c.Recorder().Export()
	if len(prof.Regions) != 2 {
		t.Fatalf("regions = %+v", prof.Regions)
	}
}

func TestHelpersOnBackground(t *testing.T) {
	c := Background(2)
	xs := []int64{3, 1, 4, 1, 5}
	if got := c.SumInt64(xs); got != 14 {
		t.Fatalf("SumInt64 = %d", got)
	}
	scan := append([]int64(nil), xs...)
	if total := c.ExclusiveSumInt64(scan); total != 14 {
		t.Fatalf("scan total = %d", total)
	}
	if scan[0] != 0 || scan[4] != 9 {
		t.Fatalf("scan = %v", scan)
	}
	zero := []int64{7, 7, 7}
	c.ZeroInt64(zero)
	for _, v := range zero {
		if v != 0 {
			t.Fatalf("ZeroInt64 left %v", zero)
		}
	}
	keep := []int64{1, 0, 1, 0, 1}
	idx := c.PackIndexInto(len(keep), keep, nil, nil)
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 2 || idx[2] != 4 {
		t.Fatalf("PackIndexInto = %v", idx)
	}
	src := []int64{10, 20, 30, 40, 50}
	packed := PackInto(c, src, keep, nil, nil)
	if len(packed) != 3 || packed[0] != 10 || packed[1] != 30 || packed[2] != 50 {
		t.Fatalf("PackInto = %v", packed)
	}
}
