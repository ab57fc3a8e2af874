// The scratch arena for the engine's phase loop. The paper's profile (§IV-C:
// contraction takes 40–80% of total execution time) means the loop's
// performance is dominated by memory traffic, and the seed engine added
// allocation and zeroing of every per-phase array — scores, degrees, match
// state, worklists, histogram stripes, and all six arrays of each new
// community graph — on top of it. The arena keeps one reusable copy of each,
// sized by the first (largest) phase: after phase 0 the steady-state loop
// performs no heap allocations, and a harness sweep reusing one Scratch
// across trials skips even the phase-0 allocations after the first run —
// except the matching kernel's edge-sized row store, which each run
// reallocates at its first matching level so an arena kept between runs
// pins only vertex-sized matching state.
package core

import (
	"repro/internal/contract"
	"repro/internal/graph"
	"repro/internal/matching"
	"repro/internal/par"
	"repro/internal/plp"
)

// Scratch is the engine's reusable per-run arena. A zero Scratch (or
// NewScratch()) is ready to use; buffers grow to the largest graph seen and
// are recycled for everything smaller. It holds:
//
//   - the per-phase score array and the double-buffered weighted-degree
//     arrays the roll-up ping-pongs between;
//   - the matching kernels' match/candidate/lock/worklist state;
//   - the contraction kernel's per-bucket counts and per-worker histogram
//     stripes;
//   - two community graphs used as ping-pong contraction destinations
//     (phase i reads one and writes the other);
//   - the double-buffered community-size arrays and the merge stripes both
//     roll-ups share;
//   - a mapping buffer reused across phases when Options.DiscardLevels is
//     set.
//
// Every detection runs on an arena: DetectContext makes a temporary one,
// DetectExec and DetectIncrementalWithContext take the caller's. A Scratch
// must not be used by concurrent runs. Results never alias scratch memory,
// so they stay valid after the arena is reused.
type Scratch struct {
	degs        [2][]int64
	scores      []float64
	mapping     []int64
	sizes       [2][]int64
	rollStripes []int64
	// part is the per-level edge-balanced schedule the engine installs on
	// the execution context at the top of each phase (Options.Scheduler).
	part     par.Partition
	match    matching.Scratch
	contract contract.Scratch
	// plp is the label-propagation engine's state (CSR view, label and
	// worklist arrays, histogram stripes), used by EnginePLP/EngineEnsemble.
	plp plp.Scratch
	cg  [2]*graph.Graph
	// final is the last run's final community graph, whose vertex c is
	// community c of its Result.CommunityOf: a ping-pong buffer, a
	// refinement rebuild, or the input itself when nothing was contracted.
	// It is nil after a run that failed a validation check or a seeded run
	// that ended on its seed measure, and valid until the arena's next run.
	final *graph.Graph
	// Incremental re-detection working set (DetectIncrementalWithContext): the
	// per-previous-community dirty flags, the sorted dirty list and the id
	// remap, the dense seed partition handed to the engine's seed stage, the
	// dissolved vertices (per worker, then in seed id order), the seed
	// communities' intra weights, and the previous run's carried measure.
	dirty       []bool
	dirtyList   []int64
	remap       []int64
	seedComm    []int64
	singleLists [][]int64
	singles     []int64
	seedIntra   []int64
	carry       seedCarry
}

// NewScratch returns an empty arena; buffers are allocated on first use.
func NewScratch() *Scratch { return &Scratch{} }

// orNew returns s, or a new arena when the caller passed none: the one place
// an entry point decides which arena a run uses.
func (s *Scratch) orNew() *Scratch {
	if s == nil {
		return NewScratch()
	}
	return s
}

// graphBuf returns the i-th (mod 2) ping-pong community-graph buffer,
// creating it on first use.
func (s *Scratch) graphBuf(i int) *graph.Graph {
	i &= 1
	if s.cg[i] == nil {
		s.cg[i] = &graph.Graph{}
	}
	return s.cg[i]
}
