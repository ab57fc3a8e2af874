// Package metrics evaluates community partitions against the quality
// measures the paper's setting cares about: Newman–Girvan modularity (the
// default optimization target, §III), coverage (the DIMACS-style
// termination criterion used in §V), per-community conductance (the
// alternative metric the engine can optimize), and community size
// statistics.
package metrics

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/par"
)

// Summary aggregates the quality measures of one partition.
type Summary struct {
	NumCommunities  int64
	Modularity      float64
	Coverage        float64
	MeanConductance float64
	MaxConductance  float64
	MinSize         int64
	MaxSize         int64
	MeanSize        float64
	MedianSize      int64
}

// String renders the summary as a single report line.
func (s Summary) String() string {
	return fmt.Sprintf(
		"communities=%d modularity=%.4f coverage=%.4f conductance(mean=%.4f max=%.4f) size(min=%d median=%d mean=%.1f max=%d)",
		s.NumCommunities, s.Modularity, s.Coverage, s.MeanConductance, s.MaxConductance,
		s.MinSize, s.MedianSize, s.MeanSize, s.MaxSize)
}

// Densify relabels arbitrary community ids densely into [0, k), preserving
// the grouping, and returns the new labels and k. Labels are assigned in
// order of first appearance.
func Densify(comm []int64) ([]int64, int64) {
	out := make([]int64, len(comm))
	label := make(map[int64]int64)
	for i, c := range comm {
		id, ok := label[c]
		if !ok {
			id = int64(len(label))
			label[c] = id
		}
		out[i] = id
	}
	return out, int64(len(label))
}

// ValidatePartition checks that comm assigns every one of n vertices a
// community in [0, k) and that no community is empty.
func ValidatePartition(comm []int64, n, k int64) error {
	if int64(len(comm)) != n {
		return fmt.Errorf("metrics: partition has %d entries for %d vertices", len(comm), n)
	}
	seen := make([]bool, k)
	for v, c := range comm {
		if c < 0 || c >= k {
			return fmt.Errorf("metrics: vertex %d community %d outside [0,%d)", v, c, k)
		}
		seen[c] = true
	}
	for c, ok := range seen {
		if !ok {
			return fmt.Errorf("metrics: community %d empty", c)
		}
	}
	return nil
}

// communityAggregates computes per-community internal weight and volume
// with p workers.
func communityAggregates(p int, g *graph.Graph, comm []int64, k int64) (internal, vol []int64) {
	internal = make([]int64, k)
	vol = make([]int64, k)
	deg := g.WeightedDegrees(p)
	n := int(g.NumVertices())
	par.For(p, n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			c := comm[x]
			atomic.AddInt64(&internal[c], g.Self[x])
			atomic.AddInt64(&vol[c], deg[x])
		}
	})
	par.ForDynamic(p, n, 0, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			for e := g.Start[x]; e < g.End[x]; e++ {
				if cu := comm[x]; cu == comm[g.V[e]] {
					atomic.AddInt64(&internal[cu], g.W[e])
				}
			}
		}
	})
	return internal, vol
}

// Modularity evaluates Q = Σ_c [ internal_c/m − (vol_c/(2m))² ] for the
// partition comm (ids dense in [0, k)) on g.
func Modularity(p int, g *graph.Graph, comm []int64, k int64) float64 {
	m := float64(g.TotalWeight(p))
	if m == 0 {
		return 0
	}
	internal, vol := communityAggregates(p, g, comm, k)
	var q float64
	for c := int64(0); c < k; c++ {
		d := float64(vol[c]) / (2 * m)
		q += float64(internal[c])/m - d*d
	}
	return q
}

// Coverage is the fraction of total edge weight inside communities.
func Coverage(p int, g *graph.Graph, comm []int64, k int64) float64 {
	m := g.TotalWeight(p)
	if m == 0 {
		return 0
	}
	internal, _ := communityAggregates(p, g, comm, k)
	return float64(par.SumInt64(p, internal)) / float64(m)
}

// Conductances returns φ_c = cut_c / min(vol_c, 2m − vol_c) per community;
// communities with zero volume or zero complement get φ = 0.
func Conductances(p int, g *graph.Graph, comm []int64, k int64) []float64 {
	m := g.TotalWeight(p)
	internal, vol := communityAggregates(p, g, comm, k)
	out := make([]float64, k)
	twoM := 2 * float64(m)
	for c := int64(0); c < k; c++ {
		cut := float64(vol[c] - 2*internal[c])
		denom := float64(vol[c])
		if other := twoM - float64(vol[c]); other < denom {
			denom = other
		}
		if denom > 0 {
			out[c] = cut / denom
		}
	}
	return out
}

// Sizes returns the vertex count of each community.
func Sizes(comm []int64, k int64) []int64 {
	sizes := make([]int64, k)
	for _, c := range comm {
		sizes[c]++
	}
	return sizes
}

// Evaluate computes the full Summary of a partition.
func Evaluate(p int, g *graph.Graph, comm []int64, k int64) Summary {
	s := Summary{NumCommunities: k}
	if k == 0 {
		return s
	}
	s.Modularity = Modularity(p, g, comm, k)
	s.Coverage = Coverage(p, g, comm, k)
	phis := Conductances(p, g, comm, k)
	var sum float64
	for _, phi := range phis {
		sum += phi
		if phi > s.MaxConductance {
			s.MaxConductance = phi
		}
	}
	s.MeanConductance = sum / float64(k)
	sizes := Sizes(comm, k)
	sort.Slice(sizes, func(i, j int) bool { return sizes[i] < sizes[j] })
	s.MinSize = sizes[0]
	s.MaxSize = sizes[k-1]
	s.MedianSize = sizes[k/2]
	s.MeanSize = float64(len(comm)) / float64(k)
	return s
}
