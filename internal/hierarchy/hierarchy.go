// Package hierarchy turns the engine's per-phase contraction maps into a
// queryable community dendrogram. Every agglomeration phase is one level of
// the hierarchy; cutting the dendrogram at a level yields that phase's
// partition of the original graph. This supports the use case the paper's
// introduction motivates: communities "can be analyzed more thoroughly or
// form the basis for multi-level algorithms".
package hierarchy

import (
	"fmt"

	"repro/internal/exec"
)

// Dendrogram is the merge hierarchy of one detection run.
type Dendrogram struct {
	n      int64
	levels [][]int64
	// partitions[l] caches the composed vertex→community map after l
	// levels; partitions[0] is the identity.
	partitions [][]int64
	counts     []int64
}

// New builds a dendrogram for n original vertices from per-level community
// maps, outermost (finest) first: levels[l] maps the level-l community ids
// to level-l+1 ids and must be dense. The engine's Result.Levels has
// exactly this shape (when Options.RefineEveryPhase is off). The caller's
// slices stay its own: the first level, which the dendrogram serves as its
// level-1 partition, is copied.
func New(n int64, levels [][]int64) (*Dendrogram, error) {
	if len(levels) > 0 {
		levels = append([][]int64{append([]int64(nil), levels[0]...)}, levels[1:]...)
	}
	return NewExec(exec.Background(0), n, levels)
}

// NewExec is New composing the per-level partitions on ec's workers; the
// composition sweep over n vertices at every level is the only heavy part of
// dendrogram construction. Unlike New it takes levels over: the first level
// is the level-1 partition itself, so the caller must not modify it
// afterwards. A cancelled context aborts between levels with a wrapped
// ctx.Err().
func NewExec(ec *exec.Ctx, n int64, levels [][]int64) (*Dendrogram, error) {
	d := &Dendrogram{n: n, levels: levels}
	cur := make([]int64, n)
	for i := range cur {
		cur[i] = int64(i)
	}
	d.partitions = append(d.partitions, cur)
	d.counts = append(d.counts, n)
	prevK := n
	for l, level := range levels {
		if err := ec.Err(); err != nil {
			return nil, fmt.Errorf("hierarchy: canceled at level %d: %w", l, err)
		}
		k := int64(len(level))
		if k != prevK {
			return nil, fmt.Errorf("hierarchy: level %d maps %d communities, previous level has %d", l, k, prevK)
		}
		var maxID int64 = -1
		for _, c := range level {
			if c < 0 {
				return nil, fmt.Errorf("hierarchy: level %d has negative community id", l)
			}
			if c > maxID {
				maxID = c
			}
		}
		nextK := maxID + 1
		if nextK > k {
			// k entries cannot cover more than k ids; refuse before sizing
			// the seen flags from an id.
			return nil, fmt.Errorf("hierarchy: level %d uses community id %d with only %d entries", l, maxID, k)
		}
		seen := make([]bool, nextK)
		for _, c := range level {
			seen[c] = true
		}
		for c, ok := range seen {
			if !ok {
				return nil, fmt.Errorf("hierarchy: level %d community %d empty", l, c)
			}
		}
		// The first level composed with the identity is the level itself,
		// which the dendrogram already holds; every later one composes
		// straight into its own partition array, leaving the previous one
		// intact for AtLevel.
		next := level
		if l > 0 {
			next = make([]int64, n)
			prev := cur
			if ec.Serial(int(n)) {
				for v := range next {
					next[v] = level[prev[v]]
				}
			} else {
				ec.For(int(n), func(lo, hi int) {
					for v := lo; v < hi; v++ {
						next[v] = level[prev[v]]
					}
				})
			}
		}
		d.partitions = append(d.partitions, next)
		d.counts = append(d.counts, nextK)
		cur, prevK = next, nextK
	}
	return d, nil
}

// FromFinal bootstraps a one-level dendrogram from a flat vertex→community
// partition with k communities. Incremental re-detection uses this to keep
// chaining when the engine ran with DiscardLevels (no per-phase maps to
// rebuild the full hierarchy from): the next DetectIncremental only needs
// Final(), which this dendrogram serves exactly.
func FromFinal(n int64, comm []int64, k int64) (*Dendrogram, error) {
	if int64(len(comm)) != n {
		return nil, fmt.Errorf("hierarchy: partition maps %d vertices, want %d", len(comm), n)
	}
	d, err := NewExec(exec.Background(0), n, [][]int64{append([]int64(nil), comm...)})
	if err != nil {
		return nil, err
	}
	if got := d.counts[1]; got != k {
		return nil, fmt.Errorf("hierarchy: partition has %d communities, caller claims %d", got, k)
	}
	return d, nil
}

// NumLevels returns the number of merge levels (0 means no contraction ran).
func (d *Dendrogram) NumLevels() int { return len(d.levels) }

// NumVertices returns the number of original vertices.
func (d *Dendrogram) NumVertices() int64 { return d.n }

// AtLevel returns the partition of the original vertices after level merge
// phases (level 0 = singletons) and its community count. The returned slice
// is shared; callers must not modify it.
func (d *Dendrogram) AtLevel(level int) (comm []int64, k int64, err error) {
	if level < 0 || level > d.NumLevels() {
		return nil, 0, fmt.Errorf("hierarchy: level %d outside [0,%d]", level, d.NumLevels())
	}
	return d.partitions[level], d.counts[level], nil
}

// Final returns the coarsest partition.
func (d *Dendrogram) Final() (comm []int64, k int64) {
	return d.partitions[d.NumLevels()], d.counts[d.NumLevels()]
}

// CommunityCounts returns the community count per level, finest first
// (entry 0 is the vertex count).
func (d *Dendrogram) CommunityCounts() []int64 {
	return append([]int64(nil), d.counts...)
}

// MergedAt returns how many communities merge level l removed: the
// difference between the community counts entering and leaving the level.
// Summed over all levels it is n minus the final community count, which is
// the invariant the convergence ledger's MergedVertices column is checked
// against.
func (d *Dendrogram) MergedAt(level int) (int64, error) {
	if level < 0 || level >= d.NumLevels() {
		return 0, fmt.Errorf("hierarchy: level %d outside [0,%d)", level, d.NumLevels())
	}
	return d.counts[level] - d.counts[level+1], nil
}

// CutAtCount returns the finest partition with at most target communities,
// or the coarsest available if every level exceeds target. This is how an
// application imposes "a minimum number of communities" after the fact
// instead of during the run.
func (d *Dendrogram) CutAtCount(target int64) (comm []int64, k int64, level int) {
	for l := 0; l <= d.NumLevels(); l++ {
		if d.counts[l] <= target {
			return d.partitions[l], d.counts[l], l
		}
	}
	last := d.NumLevels()
	return d.partitions[last], d.counts[last], last
}

// Members returns the original vertices of community c at the given level.
func (d *Dendrogram) Members(level int, c int64) ([]int64, error) {
	comm, k, err := d.AtLevel(level)
	if err != nil {
		return nil, err
	}
	if c < 0 || c >= k {
		return nil, fmt.Errorf("hierarchy: community %d outside [0,%d)", c, k)
	}
	var out []int64
	for v, cc := range comm {
		if cc == c {
			out = append(out, int64(v))
		}
	}
	return out, nil
}

// TraceVertex returns the community id of vertex v at every level, finest
// first (entry 0 is v itself).
func (d *Dendrogram) TraceVertex(v int64) ([]int64, error) {
	if v < 0 || v >= d.n {
		return nil, fmt.Errorf("hierarchy: vertex %d outside [0,%d)", v, d.n)
	}
	out := make([]int64, d.NumLevels()+1)
	for l := 0; l <= d.NumLevels(); l++ {
		out[l] = d.partitions[l][v]
	}
	return out, nil
}
