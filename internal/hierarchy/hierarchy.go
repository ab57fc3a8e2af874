// Package hierarchy turns the engine's per-phase contraction maps into a
// queryable community dendrogram. Every agglomeration phase is one level of
// the hierarchy; cutting the dendrogram at a level yields that phase's
// partition of the original graph. This supports the use case the paper's
// introduction motivates: communities "can be analyzed more thoroughly or
// form the basis for multi-level algorithms".
//
// A dendrogram stores only its level maps, the community count per level
// and the final partition, so it costs O(n + Σ level sizes) however many
// levels the run had. Final, CommunityCounts and MergedAt read what is
// stored; AtLevel, CutAtCount and Members compose their level when called,
// in O(n + Σ sizes of the levels below it); TraceVertex follows one vertex
// through the maps in O(levels).
package hierarchy

import (
	"fmt"
	"slices"
)

// Dendrogram is the merge hierarchy of one detection run.
type Dendrogram struct {
	n int64
	// levels[l] maps the level-l community ids to level-l+1 ids.
	levels [][]int64
	// counts[l] is the community count after l levels; counts[0] = n.
	counts []int64
	final  []int64
}

// New builds a dendrogram for n original vertices from per-level community
// maps, outermost (finest) first: levels[l] maps the level-l community ids
// to level-l+1 ids and must be dense. The engine's Result.Levels has
// exactly this shape (when Options.RefineEveryPhase is off). New takes the
// levels over, so the caller must not modify them afterwards; it validates
// them and composes the final partition once, from the coarsest level
// down, in O(n + Σ level sizes).
func New(n int64, levels [][]int64) (*Dendrogram, error) {
	if n < 0 {
		return nil, fmt.Errorf("hierarchy: negative vertex count %d", n)
	}
	d := &Dendrogram{n: n, levels: levels, counts: make([]int64, 1, len(levels)+1)}
	d.counts[0] = n
	prevK := n
	for l, level := range levels {
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
		d.counts = append(d.counts, nextK)
		prevK = nextK
	}
	if len(levels) == 1 {
		d.final = levels[0] // one level is its own final partition
	} else {
		d.final = d.compose(len(levels))
	}
	return d, nil
}

// FromFinal bootstraps a one-level dendrogram from a flat vertex→community
// partition with k communities. Incremental re-detection uses this to keep
// chaining when the engine ran with DiscardLevels (no per-phase maps to
// rebuild the full hierarchy from): the next DetectIncremental only needs
// Final(), which this dendrogram serves exactly. comm stays the caller's.
func FromFinal(n int64, comm []int64, k int64) (*Dendrogram, error) {
	d, err := New(n, [][]int64{append([]int64(nil), comm...)})
	if err != nil {
		return nil, err
	}
	if got := d.counts[1]; got != k {
		return nil, fmt.Errorf("hierarchy: partition has %d communities, caller claims %d", got, k)
	}
	return d, nil
}

// compose returns a fresh partition of the original vertices after the
// given number of levels. It starts from the identity over that level's
// communities and maps each finer level's entries through the composition
// above it, alternating between the n-wide result (even levels) and one
// level-1-wide buffer (odd levels), in O(n + Σ sizes of the levels below).
func (d *Dendrogram) compose(level int) []int64 {
	bufs := [2][]int64{make([]int64, d.n)}
	if level > 0 {
		bufs[1] = make([]int64, d.counts[1])
	}
	f := bufs[level%2][:d.counts[level]]
	for c := range f {
		f[c] = int64(c)
	}
	for l := level - 1; l >= 0; l-- {
		dst := bufs[l%2][:d.counts[l]]
		for c, p := range d.levels[l] {
			dst[c] = f[p]
		}
		f = dst
	}
	return f
}

// NumLevels returns the number of merge levels (0 means no contraction ran).
func (d *Dendrogram) NumLevels() int { return len(d.levels) }

// NumVertices returns the number of original vertices.
func (d *Dendrogram) NumVertices() int64 { return d.n }

// AtLevel returns the partition of the original vertices after level merge
// phases (level 0 = singletons) and its community count. The partition is
// composed on each call into a fresh slice the caller owns, in O(n + Σ
// sizes of the levels below level).
func (d *Dendrogram) AtLevel(level int) (comm []int64, k int64, err error) {
	if level < 0 || level > d.NumLevels() {
		return nil, 0, fmt.Errorf("hierarchy: level %d outside [0,%d]", level, d.NumLevels())
	}
	return d.compose(level), d.counts[level], nil
}

// Final returns the coarsest partition, composed once by New. The slice is
// shared; callers must not modify it.
func (d *Dendrogram) Final() (comm []int64, k int64) {
	return d.final, d.counts[d.NumLevels()]
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
// instead of during the run. Like AtLevel it composes a fresh slice.
func (d *Dendrogram) CutAtCount(target int64) (comm []int64, k int64, level int) {
	level = slices.IndexFunc(d.counts, func(k int64) bool { return k <= target })
	if level < 0 {
		level = d.NumLevels()
	}
	return d.compose(level), d.counts[level], level
}

// Members returns the original vertices of community c at the given level,
// in ascending order, in O(n + Σ sizes of the levels below level).
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
// first (entry 0 is v itself), following v through the maps in O(levels).
func (d *Dendrogram) TraceVertex(v int64) ([]int64, error) {
	if v < 0 || v >= d.n {
		return nil, fmt.Errorf("hierarchy: vertex %d outside [0,%d)", v, d.n)
	}
	out := make([]int64, d.NumLevels()+1)
	out[0] = v
	for l, level := range d.levels {
		out[l+1] = level[out[l]]
	}
	return out, nil
}
