package graph

import "sync/atomic"

// atomicAdd is the fetch-and-add the paper relies on for bucket placement
// and degree accumulation.
func atomicAdd(addr *int64, delta int64) int64 {
	return atomic.AddInt64(addr, delta)
}

// atomicLoad is the matching acquire read for flags shared across par.For
// chunks (the builder's presort check).
func atomicLoad(addr *int64) int64 {
	return atomic.LoadInt64(addr)
}

// atomicAddCapped adds delta (≥ 0) to *addr unless the sum would pass
// limit, and reports whether it added. The builder totals its per-chunk
// weight sums with it, so the shared total itself never overflows.
func atomicAddCapped(addr *atomic.Int64, delta, limit int64) bool {
	for {
		old := addr.Load()
		if delta > limit-old {
			return false
		}
		if addr.CompareAndSwap(old, old+delta) {
			return true
		}
	}
}

// atomicMin lowers *addr to val if val is smaller and reports whether it
// changed anything. Used by the label-propagation components kernel.
func atomicMin(addr *int64, val int64) bool {
	for {
		old := atomic.LoadInt64(addr)
		if old <= val {
			return false
		}
		if atomic.CompareAndSwapInt64(addr, old, val) {
			return true
		}
	}
}
