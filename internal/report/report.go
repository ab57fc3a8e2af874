// Package report serializes detection runs as JSON so experiments can be
// archived and post-processed (plotting Figure 1/2/3-style series, diffing
// quality across code versions) without scraping log text.
package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Run is one detection run, flattened for JSON.
type Run struct {
	Graph   GraphInfo `json:"graph"`
	Options Options   `json:"options"`
	Phases  []Phase   `json:"phases"`
	Summary Summary   `json:"summary"`
	// Meta describes the machine and build that produced the run, so
	// archived runs stay comparable across hosts and revisions.
	Meta *Meta `json:"meta,omitempty"`
	// Obs carries the kernel-level observability profile when the run was
	// recorded with an obs.Recorder: per-kernel seconds, matching and
	// contraction counters, the bucket-occupancy histogram, worker-imbalance
	// regions, and the span timeline.
	Obs *obs.Profile `json:"obs,omitempty"`
	// Levels and Warnings carry the convergence ledger when the run was
	// recorded with an obs.Ledger: one row per contraction level plus any
	// flagged anomalies.
	Levels   []obs.LevelStats `json:"levels,omitempty"`
	Warnings []obs.Warning    `json:"warnings,omitempty"`
}

// AttachLedger copies the ledger's rows and warnings into the run; a nil or
// empty ledger leaves the run unchanged.
func (r *Run) AttachLedger(l *obs.Ledger) {
	if p := l.Export(); p != nil {
		r.Levels = p.Levels
		r.Warnings = p.Warnings
	}
}

// GraphInfo identifies the workload. It doubles as the harness's Table II
// row type (harness.GraphInfo aliases it), keeping one definition of the
// graph summary across the reporting layers.
type GraphInfo struct {
	Name     string `json:"name"`
	Vertices int64  `json:"vertices"`
	Edges    int64  `json:"edges"`
	Weight   int64  `json:"total_weight"`
}

// Info summarizes a graph as a GraphInfo row.
func Info(name string, g *graph.Graph) GraphInfo {
	return GraphInfo{
		Name:     name,
		Vertices: g.NumVertices(),
		Edges:    g.NumEdges(),
		Weight:   g.TotalWeight(0),
	}
}

// Meta captures the execution environment of a run.
type Meta struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GitRevision string `json:"git_revision,omitempty"`
	GitModified bool   `json:"git_modified,omitempty"`
}

// CollectMeta snapshots the current process's environment. The git revision
// comes from the build info stamped into binaries built from a checkout
// (`vcs.revision`); it is empty under `go test` or a non-VCS build.
func CollectMeta() *Meta {
	m := &Meta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.GitRevision = s.Value
			case "vcs.modified":
				m.GitModified = s.Value == "true"
			}
		}
	}
	return m
}

// Options mirrors the engine configuration that produced the run.
type Options struct {
	Threads     int    `json:"threads"`
	Scorer      string `json:"scorer"`
	Matching    string `json:"matching"`
	Contraction string `json:"contraction"`
	// Engine names the detection pipeline (matching/plp/ensemble); the PLP
	// knobs are recorded only when an engine that reads them is selected.
	Engine string `json:"engine"`
	// Shards is the sharded-detection fan-out, 0 for single-image runs. Set
	// by the sharded CLI path (core.ShardOptions, not core.Options, carries
	// it); part of the doctor's baseline key, since per-shard kernels time
	// very differently from the single-image ones.
	Shards           int     `json:"shards,omitempty"`
	PLPMaxSweeps     int     `json:"plp_max_sweeps,omitempty"`
	PLPThreshold     float64 `json:"plp_threshold,omitempty"`
	MinCoverage      float64 `json:"min_coverage,omitempty"`
	MaxPhases        int     `json:"max_phases,omitempty"`
	MinCommunities   int64   `json:"min_communities,omitempty"`
	MaxCommunitySize int64   `json:"max_community_size,omitempty"`
	RefineEveryPhase bool    `json:"refine_every_phase,omitempty"`
}

// OptionsOf mirrors a core.Options into its serialized form.
func OptionsOf(opt core.Options) Options {
	scorer := "modularity"
	if opt.Scorer != nil {
		scorer = opt.Scorer.Name()
	}
	o := Options{
		Threads:          opt.Threads,
		Scorer:           scorer,
		Matching:         opt.Matching.String(),
		Contraction:      opt.Contraction.String(),
		Engine:           opt.Engine.String(),
		MinCoverage:      opt.MinCoverage,
		MaxPhases:        opt.MaxPhases,
		MinCommunities:   opt.MinCommunities,
		MaxCommunitySize: opt.MaxCommunitySize,
		RefineEveryPhase: opt.RefineEveryPhase,
	}
	if opt.Engine != core.EngineMatching {
		o.PLPMaxSweeps = opt.PLPMaxSweeps
		o.PLPThreshold = opt.PLPThreshold
	}
	return o
}

// Phase mirrors core.PhaseStats with times in seconds.
type Phase struct {
	Phase        int     `json:"phase"`
	Vertices     int64   `json:"vertices"`
	Edges        int64   `json:"edges"`
	Coverage     float64 `json:"coverage"`
	Modularity   float64 `json:"modularity"`
	MatchedPairs int64   `json:"matched_pairs"`
	MatchPasses  int     `json:"match_passes"`
	ScoreSec     float64 `json:"score_sec"`
	MatchSec     float64 `json:"match_sec"`
	ContractSec  float64 `json:"contract_sec"`
}

// Summary mirrors the final result.
type Summary struct {
	Communities int64   `json:"communities"`
	Coverage    float64 `json:"coverage"`
	Modularity  float64 `json:"modularity"`
	Termination string  `json:"termination"`
	TotalSec    float64 `json:"total_sec"`
	EdgesPerSec float64 `json:"edges_per_sec"`
	// Quality duplicates the metrics summary for convenience.
	MeanConductance float64 `json:"mean_conductance"`
	MinSize         int64   `json:"min_size"`
	MedianSize      int64   `json:"median_size"`
	MaxSize         int64   `json:"max_size"`
}

// FromResult assembles a Run from a finished detection.
func FromResult(name string, g *graph.Graph, opt core.Options, res *core.Result) *Run {
	run := &Run{
		Graph: GraphInfo{
			Name:     name,
			Vertices: g.NumVertices(),
			Edges:    g.NumEdges(),
			Weight:   g.TotalWeight(opt.Threads),
		},
		Options: OptionsOf(opt),
	}
	for _, st := range res.Stats {
		run.Phases = append(run.Phases, Phase{
			Phase:        st.Phase,
			Vertices:     st.Vertices,
			Edges:        st.Edges,
			Coverage:     st.Coverage,
			Modularity:   st.Modularity,
			MatchedPairs: st.MatchedPairs,
			MatchPasses:  st.MatchPasses,
			ScoreSec:     st.ScoreTime.Seconds(),
			MatchSec:     st.MatchTime.Seconds(),
			ContractSec:  st.ContractTime.Seconds(),
		})
	}
	sum := metrics.Evaluate(opt.Threads, g, res.CommunityOf, res.NumCommunities)
	run.Summary = Summary{
		Communities:     res.NumCommunities,
		Coverage:        res.FinalCoverage,
		Modularity:      res.FinalModularity,
		Termination:     string(res.Termination),
		TotalSec:        res.Total.Seconds(),
		EdgesPerSec:     float64(g.NumEdges()) / res.Total.Seconds(),
		MeanConductance: sum.MeanConductance,
		MinSize:         sum.MinSize,
		MedianSize:      sum.MedianSize,
		MaxSize:         sum.MaxSize,
	}
	return run
}

// WriteJSON writes the run as indented JSON.
func (r *Run) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Manifest is one self-contained run record for the results/ archive: enough
// environment (host, git revision via the stamped build info), configuration
// (full engine options), and outcome (summary, per-level convergence rows,
// kernel seconds) to reproduce and compare the run without any other file.
// Manifests append as single JSON lines so one file accumulates a series and
// stays greppable/jq-able.
type Manifest struct {
	// Kind is "run" for a completed detection or "partial" for a manifest
	// flushed by a panic/interrupt handler before the run finished.
	Kind     string              `json:"kind"`
	Time     time.Time           `json:"time"`
	Host     *Meta               `json:"host,omitempty"`
	Graph    GraphInfo           `json:"graph"`
	Options  Options             `json:"options"`
	Summary  *Summary            `json:"summary,omitempty"`
	Levels   []obs.LevelStats    `json:"levels,omitempty"`
	Warnings []obs.Warning       `json:"warnings,omitempty"`
	Kernels  []obs.KernelSeconds `json:"kernel_seconds,omitempty"`
	// Latencies carries the run's per-class latency-histogram snapshots
	// (quantiles + cumulative buckets), same shape as the Prometheus export.
	Latencies []obs.LatencyProfile `json:"latencies,omitempty"`
	// Allocs is the run's heap-allocation footprint when the recorder
	// sampled it — one of the doctor's baseline drift metrics.
	Allocs *obs.AllocStats `json:"allocs,omitempty"`
	// Verdict is the run doctor's end-of-run assessment against the learned
	// baseline, absent when no doctor ran.
	Verdict *obs.Verdict `json:"verdict,omitempty"`
}

// NewManifest assembles a manifest of the given kind ("run", or "partial"
// from a crash path) stamped with the current time and host. The kernel
// seconds, latency snapshots and heap footprint (when sampled) come from
// rec, the convergence rows and warnings from led; either may be nil.
// Callers fill in Summary.
func NewManifest(kind string, graph GraphInfo, opt core.Options, rec *obs.Recorder, led *obs.Ledger) *Manifest {
	m := &Manifest{
		Kind:      kind,
		Time:      time.Now().UTC(),
		Host:      CollectMeta(),
		Graph:     graph,
		Options:   OptionsOf(opt),
		Kernels:   rec.KernelSeconds(),
		Latencies: rec.Latencies(),
	}
	if a := rec.Allocs(); a.Bytes != 0 || a.Count != 0 {
		m.Allocs = &a
	}
	if p := led.Export(); p != nil {
		m.Levels, m.Warnings = p.Levels, p.Warnings
	}
	return m
}

// AppendManifest writes m as one compact JSON line at the end of path,
// creating the file (and its directory) if needed. The O_APPEND single-write
// discipline keeps concurrent runs from interleaving within a line.
func AppendManifest(path string, m *Manifest) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	line, err := json.Marshal(m)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadManifests parses every manifest line in r. A line that is not valid
// JSON — the crash-path O_APPEND write can be interrupted mid-line, leaving
// a torn record (typically the last line, but resync continues either way)
// — is skipped and counted rather than failing the whole file: one bad
// write must not make an archive of good runs unreadable. The error return
// is reserved for I/O failures on r itself.
func ReadManifests(r io.Reader) (ms []*Manifest, skipped int, err error) {
	// Line-oriented reading, not a json.Decoder: the decoder cannot resync
	// past a malformed record, while the append discipline guarantees every
	// intact record is exactly one '\n'-terminated line. ReadBytes (not a
	// Scanner) because manifest lines carry whole convergence ledgers and
	// routinely exceed any fixed token-size guess.
	br := bufio.NewReader(r)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			var m Manifest
			if json.Unmarshal(line, &m) == nil {
				ms = append(ms, &m)
			} else {
				skipped++
			}
		}
		if rerr == io.EOF {
			return ms, skipped, nil
		}
		if rerr != nil {
			return ms, skipped, rerr
		}
	}
}

// ReadManifestFile opens path and parses it with ReadManifests.
func ReadManifestFile(path string) (ms []*Manifest, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	return ReadManifests(f)
}
