package contract

import (
	"sync/atomic"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/par"
)

// ListChase contracts g according to match with the 2011 hashed-linked-list
// kernel (John T. Feo's technique) on ec's workers: each relabeled edge is
// hashed to a chain; the chain is searched under the slot's lock, the
// weight added on a hit and a node appended on a miss. The XMT walks such
// dynamically growing lists almost for free with full/empty bits; on
// cache-based machines the pointer chasing and locking dominate, which is
// exactly the behavior this ablation baseline exists to demonstrate
// (§IV-C). The result is identical (as a graph) to Bucket's.
func ListChase(ec *exec.Ctx, g *graph.Graph, match []int64) (*graph.Graph, []int64) {
	mapping, k := Relabel(ec, g, match, nil)
	ng := graph.NewEmpty(k)
	n := int(g.NumVertices())

	ec.For(n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			if s := g.Self[x]; s != 0 {
				atomic.AddInt64(&ng.Self[mapping[x]], s)
			}
		}
	})

	// Hash table sized to the worst case (every old edge survives), |E|+|V|
	// extra storage as the paper accounts for the original technique.
	capEdges := g.NumEdges()
	slots := int64(1)
	for slots < capEdges+1 {
		slots <<= 1
	}
	head := make([]int64, slots) // 1-based node index, 0 = empty
	locks := par.NewSpinLocks(int(slots))
	nodeU := make([]int64, capEdges)
	nodeV := make([]int64, capEdges)
	nodeW := make([]int64, capEdges)
	nodeNext := make([]int64, capEdges)
	var pool int64 // bump allocator over the node arrays

	hash := func(a, b int64) int64 {
		h := uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xc2b2ae3d27d4eb4f
		h ^= h >> 29
		return int64(h & uint64(slots-1))
	}

	ec.ForDynamic(n, 0, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			for e := g.Start[x]; e < g.End[x]; e++ {
				ni, nj := mapping[x], mapping[g.V[e]]
				w := g.W[e]
				if ni == nj {
					atomic.AddInt64(&ng.Self[ni], w)
					continue
				}
				first, second := graph.StoredOrder(ni, nj)
				slot := hash(first, second)
				locks.Lock(slot)
				found := false
				for node := head[slot]; node != 0; node = nodeNext[node-1] {
					if nodeU[node-1] == first && nodeV[node-1] == second {
						nodeW[node-1] += w
						found = true
						break
					}
				}
				if !found {
					node := atomic.AddInt64(&pool, 1) // 1-based
					nodeU[node-1] = first
					nodeV[node-1] = second
					nodeW[node-1] = w
					nodeNext[node-1] = head[slot]
					head[slot] = node
				}
				locks.Unlock(slot)
			}
		}
	})

	// Materialize the accumulated unique edges into bucket storage: count
	// per first endpoint, prefix-sum offsets, scatter. The chains already
	// merged duplicates, so the buckets need no further pass; their order is
	// whatever the scatter's atomic cursors produced.
	unique := pool
	counts := make([]int64, k)
	ec.For(int(unique), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt64(&counts[nodeU[i]], 1)
		}
	})
	cursor := make([]int64, k)
	copy(cursor, counts)
	ec.ExclusiveSumInt64(cursor)
	ec.For(int(k), func(lo, hi int) {
		for c := lo; c < hi; c++ {
			ng.Start[c] = cursor[c]
			ng.End[c] = cursor[c] + counts[c]
		}
	})
	ng.V = make([]int64, unique)
	ng.W = make([]int64, unique)
	ec.For(int(unique), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			pos := atomic.AddInt64(&cursor[nodeU[i]], 1) - 1
			ng.V[pos] = nodeV[i]
			ng.W[pos] = nodeW[i]
		}
	})
	ng.SetCounts(k, unique)
	return ng, mapping
}
