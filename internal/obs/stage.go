package obs

// Kernel names one engine stage. The stage table below is the only place a
// stage's names live: its trace span (category and name), whether it sets
// the goroutine's {kernel: name} pprof label, and its latency class. A
// stage with a span is opened with Recorder.Begin and timed once, by that
// span: End observes the stage's class (if any) from the span's own
// duration and returns it, so PhaseStats, the kernel_seconds breakdown and
// the latency histograms all read one clock.
//
// The class-bearing stages come first, in class export order, so a class is
// addressed by its stage's index. Two classes have no span of their own and
// are observed explicitly (ObserveLatency): detect, one whole run, and
// level, one contraction level of the agglomeration loop — the phase span
// times the level, but it also closes on the terminating level and on
// error paths, which take no level sample.
//
// The ledger's row labels (LevelStats.Stage) and the exec region names are
// separate lists on purpose: they label rows and worker regions, not timed
// intervals (coarsen and incremental rows, for instance, are both contract
// intervals).
type Kernel uint8

const (
	KernelDetect Kernel = iota
	KernelLevel
	KernelScore
	KernelMatch
	KernelContract
	KernelMatchPass
	KernelPLPSweep
	KernelContractDedup
	KernelPhase
	KernelPLP
	KernelSchedule
	KernelRefine
	KernelRefineSweep
	KernelShards
	KernelStitch
	KernelOverlayApply
	KernelOverlayCompact
	KernelMatchRows
	KernelContractRelabel
	KernelContractDensify
	KernelContractPartition
	KernelContractCount
	KernelContractOffsets
	KernelContractScatter

	numKernels
)

// numClasses is the number of latency classes: the stages up to and
// including KernelContractDedup.
const numClasses = KernelContractDedup + 1

// Span categories. CatKernel names are the engine's primitives; the
// per-kernel breakdown aggregates spans with this category by name.
const (
	CatPhase    = "phase"
	CatKernel   = "kernel"
	CatMatch    = "match"
	CatContract = "contract"
)

// stages is the stage table, indexed by Kernel.
var stages = [numKernels]struct {
	cat, name string // trace span; empty for the span-less classes
	label     bool   // Begin sets the kernel pprof label to name
	class     string // latency class; set exactly for the stages below numClasses
}{
	KernelDetect:        {class: "detect"},
	KernelLevel:         {class: "level"},
	KernelScore:         {CatKernel, "score", true, "score"},
	KernelMatch:         {CatKernel, "match", true, "match"},
	KernelContract:      {CatKernel, "contract", true, "contract"},
	KernelMatchPass:     {CatMatch, "pass", false, "match_pass"},
	KernelPLPSweep:      {CatKernel, "plp/sweep", false, "plp_sweep"},
	KernelContractDedup: {CatContract, "dedup", false, "contract_dedup"},

	KernelPhase:             {CatPhase, "phase", false, ""},
	KernelPLP:               {CatKernel, "plp", true, ""},
	KernelSchedule:          {CatKernel, "schedule", false, ""},
	KernelRefine:            {CatKernel, "refine", true, ""},
	KernelRefineSweep:       {CatKernel, "refine/sweep", false, ""},
	KernelShards:            {CatKernel, "shards", false, ""},
	KernelStitch:            {CatKernel, "stitch", false, ""},
	KernelOverlayApply:      {CatKernel, "overlay/apply", false, ""},
	KernelOverlayCompact:    {CatKernel, "overlay/compact", false, ""},
	KernelMatchRows:         {CatMatch, "rows", false, ""},
	KernelContractRelabel:   {CatContract, "relabel", false, ""},
	KernelContractDensify:   {CatContract, "densify", false, ""},
	KernelContractPartition: {CatContract, "partition", false, ""},
	KernelContractCount:     {CatContract, "count", false, ""},
	KernelContractOffsets:   {CatContract, "offsets", false, ""},
	KernelContractScatter:   {CatContract, "scatter", false, ""},
}
