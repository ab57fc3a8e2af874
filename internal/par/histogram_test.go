package par

import (
	"math/rand"
	"testing"
)

func TestMergeStripes(t *testing.T) {
	for _, tc := range []struct{ workers, k, p int }{
		{1, 1, 1}, {3, 7, 2}, {4, 1000, 8}, {8, 3, 3},
	} {
		stripes := make([]int64, tc.workers*tc.k)
		want := make([]int64, tc.k)
		rng := rand.New(rand.NewSource(1))
		for w := 0; w < tc.workers; w++ {
			for c := 0; c < tc.k; c++ {
				v := int64(rng.Intn(100))
				stripes[w*tc.k+c] = v
				want[c] += v
			}
		}
		dst := make([]int64, tc.k)
		for i := range dst {
			dst[i] = -999 // must be overwritten, not accumulated
		}
		(*Pool)(nil).MergeStripes(tc.p, stripes, tc.workers, tc.k, dst)
		for c := range want {
			if dst[c] != want[c] {
				t.Fatalf("workers=%d k=%d p=%d: dst[%d] = %d, want %d",
					tc.workers, tc.k, tc.p, c, dst[c], want[c])
			}
		}
	}
}

func TestStripeOffsets(t *testing.T) {
	const workers, k = 5, 97
	stripes := make([]int64, workers*k)
	orig := make([]int64, workers*k)
	rng := rand.New(rand.NewSource(2))
	for i := range stripes {
		stripes[i] = int64(rng.Intn(10))
		orig[i] = stripes[i]
	}
	totals := make([]int64, k)
	StripeOffsets(4, stripes, workers, k, totals)
	for c := 0; c < k; c++ {
		var run int64
		for w := 0; w < workers; w++ {
			if stripes[w*k+c] != run {
				t.Fatalf("offset[%d][%d] = %d, want %d", w, c, stripes[w*k+c], run)
			}
			run += orig[w*k+c]
		}
		if totals[c] != run {
			t.Fatalf("totals[%d] = %d, want %d", c, totals[c], run)
		}
	}
}

// TestStripeCursors checks that every stripe entry gains its bucket's base
// and nothing else, serial and parallel.
func TestStripeCursors(t *testing.T) {
	for _, tc := range []struct{ workers, k, p int }{
		{1, 1, 1}, {3, 7, 1}, {5, 97, 4}, {8, 3, 3},
	} {
		stripes := make([]int64, tc.workers*tc.k)
		orig := make([]int64, len(stripes))
		bases := make([]int64, tc.k+1) // longer than k: the tail is ignored
		rng := rand.New(rand.NewSource(3))
		for i := range stripes {
			stripes[i] = int64(rng.Intn(10))
			orig[i] = stripes[i]
		}
		for c := range bases {
			bases[c] = int64(rng.Intn(1000))
		}
		StripeCursors(tc.p, stripes, tc.workers, tc.k, bases)
		for w := 0; w < tc.workers; w++ {
			for c := 0; c < tc.k; c++ {
				if got, want := stripes[w*tc.k+c], orig[w*tc.k+c]+bases[c]; got != want {
					t.Fatalf("workers=%d k=%d p=%d: cursor[%d][%d] = %d, want %d",
						tc.workers, tc.k, tc.p, w, c, got, want)
				}
			}
		}
	}
}

func TestZeroInt64(t *testing.T) {
	xs := make([]int64, 10_000)
	for i := range xs {
		xs[i] = int64(i) + 1
	}
	ZeroInt64(4, xs)
	for i, x := range xs {
		if x != 0 {
			t.Fatalf("xs[%d] = %d after ZeroInt64", i, x)
		}
	}
}

func TestWorkers(t *testing.T) {
	if w := Workers(8, 3); w != 3 {
		t.Fatalf("Workers(8, 3) = %d, want 3", w)
	}
	if w := Workers(2, 100); w != 2 {
		t.Fatalf("Workers(2, 100) = %d, want 2", w)
	}
	if w := Workers(0, 100); w < 1 {
		t.Fatalf("Workers(0, 100) = %d, want >= 1", w)
	}
}

func TestPackIntoReusesBuffers(t *testing.T) {
	src := make([]int64, 1000)
	keep := make([]int64, 1000)
	var want []int64
	for i := range src {
		src[i] = int64(i * 3)
		if i%7 == 0 {
			keep[i] = 1
			want = append(want, src[i])
		}
	}
	slots := make([]int64, 1000)
	dst := make([]int64, 1000)
	out := PackIntoWith(nil, 4, src, keep, slots, dst)
	if len(out) != len(want) {
		t.Fatalf("packed %d survivors, want %d", len(out), len(want))
	}
	if &out[0] != &dst[0] {
		t.Fatal("PackInto did not reuse dst storage")
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], want[i])
		}
	}
	// Dirty scratch must not leak into a second pack.
	out2 := PackIntoWith(nil, 4, src, keep, slots, out[:cap(out)])
	for i := range want {
		if out2[i] != want[i] {
			t.Fatalf("second pack: out[%d] = %d, want %d", i, out2[i], want[i])
		}
	}
}

func TestPackIndexInto(t *testing.T) {
	const n = 512
	keep := make([]int64, n)
	var want []int64
	for i := 0; i < n; i++ {
		if i%3 == 1 {
			keep[i] = 1
			want = append(want, int64(i))
		}
	}
	got := (*Pool)(nil).PackIndexInto(4, n, keep, nil, nil)
	if len(got) != len(want) {
		t.Fatalf("packed %d indices, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Empty selection.
	if out := (*Pool)(nil).PackIndexInto(2, n, make([]int64, n), nil, nil); len(out) != 0 {
		t.Fatalf("empty keep packed %d indices", len(out))
	}
}
