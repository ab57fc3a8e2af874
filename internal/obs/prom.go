package obs

// Prometheus text-format exposition (format version 0.0.4), stdlib-only.
// The /metrics/prom handler renders whatever is live on the endpoint —
// recorder counters and kernel seconds, ledger convergence state, latency
// histograms, the cached Go runtime sample, and any externally registered
// sources (exec's context-pool counters arrive this way: exec imports obs,
// so obs exposes a registry instead of importing exec back).
//
// Ordering is fixed and fully deterministic — families in source order,
// labeled series sorted by label value — so the output is golden-file
// testable and scrape diffs are meaningful.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
)

// promSource is one externally registered counter series.
type promSource struct {
	name  string
	help  string
	value func() int64
}

var (
	promMu      sync.Mutex
	promSources []promSource
)

// RegisterPromCounter exposes fn as a monotone counter series on
// /metrics/prom, replacing any previous registration under the same name
// (packages register from init; tests may re-register). fn must be safe to
// call from any goroutine.
func RegisterPromCounter(name, help string, fn func() int64) {
	promMu.Lock()
	defer promMu.Unlock()
	for i := range promSources {
		if promSources[i].name == name {
			promSources[i] = promSource{name, help, fn}
			return
		}
	}
	promSources = append(promSources, promSource{name, help, fn})
}

// promSourcesSnapshot returns the registered series sorted by name.
func promSourcesSnapshot() []promSource {
	promMu.Lock()
	out := append([]promSource(nil), promSources...)
	promMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// promWriter accumulates exposition lines, capturing the first write error
// so the renderer reads as straight-line code.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// header emits the # HELP / # TYPE preamble for one family.
func (p *promWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample emits one series line. labels is pre-rendered ("" or
// `{key="value"}`).
func (p *promWriter) sample(name, labels string, v float64) {
	p.printf("%s%s %s\n", name, labels, promFloat(v))
}

// promFloat renders a value in the exposition format's float syntax.
func promFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promLabel renders a single-label selector, escaping the value per the
// exposition format.
func promLabel(key, val string) string {
	return `{` + key + `="` + promEscape(val) + `"}`
}

// promLabels renders a multi-label selector from key/value pairs, in the
// order given (the exposition format does not require sorted labels, and a
// fixed order keeps the document golden-testable).
func promLabels(kv ...string) string {
	out := []byte{'{'}
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, kv[i]...)
		out = append(out, '=', '"')
		out = append(out, promEscape(kv[i+1])...)
		out = append(out, '"')
	}
	return string(append(out, '}'))
}

// promEscape escapes a label value per the exposition format.
func promEscape(val string) string {
	esc := make([]byte, 0, len(val)+16)
	for i := 0; i < len(val); i++ {
		switch c := val[i]; c {
		case '\\':
			esc = append(esc, '\\', '\\')
		case '"':
			esc = append(esc, '\\', '"')
		case '\n':
			esc = append(esc, '\\', 'n')
		default:
			esc = append(esc, c)
		}
	}
	return string(esc)
}

// buildGitSHA reads the VCS revision stamped into binaries built from a
// checkout; empty under `go test` or a non-VCS build. Cached — ReadBuildInfo
// walks the module graph.
var buildGitSHA = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return ""
})

// WritePrometheus renders the full exposition document. Any argument may be
// nil: nil recorder/ledger skip their sections, nil rt samples the cached
// (or a fresh) runtime snapshot. The rt parameter exists so tests can pin a
// fixed sample.
func WritePrometheus(w io.Writer, r *Recorder, l *Ledger, rt *RuntimeStats) error {
	p := &promWriter{w: w}
	if rt == nil {
		rt = latestRuntime()
	}

	p.header("community_build_info", "Build information for the community-detection process.", "gauge")
	p.sample("community_build_info", promLabel("go_version", runtime.Version()), 1)
	p.header("community_go_build_info", "Info-style build identity: toolchain version and VCS revision (git_sha empty outside a VCS build).", "gauge")
	p.sample("community_go_build_info", promLabels("go_version", runtime.Version(), "git_sha", buildGitSHA()), 1)

	// The doctor gauges are always emitted (zeros before any run is
	// assessed) so dashboards and alerts can rely on the series existing.
	v := LiveVerdict()
	anomalous, baseRuns, findings, regress, maxZ := 0.0, 0.0, 0.0, 0.0, 0.0
	if v != nil {
		if v.Anomalous() {
			anomalous = 1
		}
		baseRuns = float64(v.BaselineRuns)
		findings = float64(len(v.Findings))
		regress = float64(v.Regressions())
		maxZ = v.MaxAbsZ
	}
	p.header("community_doctor_anomalous", "1 when the most recent run's doctor verdict flagged it as anomalous against its baseline.", "gauge")
	p.sample("community_doctor_anomalous", "", anomalous)
	p.header("community_doctor_baseline_runs", "Archived runs the most recent verdict's baseline was learned from.", "gauge")
	p.sample("community_doctor_baseline_runs", "", baseRuns)
	p.header("community_doctor_findings", "Drift findings (either direction) in the most recent verdict.", "gauge")
	p.sample("community_doctor_findings", "", findings)
	p.header("community_doctor_regressions", "Drift findings in the regressing direction in the most recent verdict.", "gauge")
	p.sample("community_doctor_regressions", "", regress)
	p.header("community_doctor_max_abs_z", "Largest robust |z| across the most recent verdict's assessed metrics.", "gauge")
	p.sample("community_doctor_max_abs_z", "", maxZ)
	p.header("community_profiles_captured_total", "pprof profiles archived by the triggered profiler.", "counter")
	p.sample("community_profiles_captured_total", "", float64(ProfilesCaptured()))

	p.header("community_go_goroutines", "Live goroutine count at the last runtime sample.", "gauge")
	p.sample("community_go_goroutines", "", float64(rt.Goroutines))
	p.header("community_go_heap_alloc_bytes", "Heap bytes allocated and in use.", "gauge")
	p.sample("community_go_heap_alloc_bytes", "", float64(rt.HeapAllocB))
	p.header("community_go_heap_objects", "Live heap objects.", "gauge")
	p.sample("community_go_heap_objects", "", float64(rt.HeapObjects))
	p.header("community_go_sys_bytes", "Total bytes obtained from the OS.", "gauge")
	p.sample("community_go_sys_bytes", "", float64(rt.SysB))
	p.header("community_go_next_gc_bytes", "Heap size target of the next GC cycle.", "gauge")
	p.sample("community_go_next_gc_bytes", "", float64(rt.NextGCB))
	p.header("community_go_gc_cycles_total", "Completed GC cycles.", "counter")
	p.sample("community_go_gc_cycles_total", "", float64(rt.GCCycles))
	p.header("community_go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", "counter")
	p.sample("community_go_gc_pause_seconds_total", "", float64(rt.GCPauseSec))

	for _, s := range promSourcesSnapshot() {
		p.header(s.name, s.help, "counter")
		p.sample(s.name, "", float64(s.value()))
	}

	if r != nil {
		p.header("community_recorder_uptime_seconds", "Seconds since the live recorder was created or reset.", "gauge")
		p.sample("community_recorder_uptime_seconds", "", float64(r.since())/1e9)
		p.header("community_detect_phases", "Contraction phases recorded by the live recorder.", "gauge")
		p.sample("community_detect_phases", "", float64(r.Phases()))
		p.header("community_engine_events_total", "Engine event counters by kind (matching rounds, contracted edges, ...).", "counter")
		for c := Counter(0); c < NumCounters; c++ {
			p.sample("community_engine_events_total", promLabel("counter", c.String()), float64(r.Counter(c)))
		}
		if ks := r.KernelSeconds(); len(ks) > 0 {
			sort.Slice(ks, func(i, j int) bool { return ks[i].Kernel < ks[j].Kernel })
			p.header("community_kernel_seconds", "Cumulative wall seconds per instrumented kernel span.", "gauge")
			for _, k := range ks {
				p.sample("community_kernel_seconds", promLabel("kernel", k.Kernel), k.Seconds)
			}
		}
	}

	if l != nil {
		levels := l.Levels()
		p.header("community_convergence_levels", "Contraction levels recorded by the live convergence ledger.", "gauge")
		p.sample("community_convergence_levels", "", float64(len(levels)))
		p.header("community_convergence_warnings_total", "Structured anomaly warnings flagged by the ledger.", "counter")
		p.sample("community_convergence_warnings_total", "", float64(len(l.Warnings())))
		if len(levels) > 0 {
			last := levels[len(levels)-1]
			var merged int64
			for _, st := range levels {
				merged += st.MergedVertices
			}
			p.header("community_convergence_metric", "Scoring metric (modularity) entering the most recent level.", "gauge")
			p.sample("community_convergence_metric", "", last.Metric)
			p.header("community_convergence_merged_vertices_total", "Vertices merged away across all recorded levels.", "counter")
			p.sample("community_convergence_merged_vertices_total", "", float64(merged))
		}
	}

	p.header("community_flight_events_total", "Events recorded by the process flight recorder.", "counter")
	p.sample("community_flight_events_total", "", float64(Flight().Total()))
	p.header("community_flight_dropped_total", "Flight-recorder events dropped to slot contention.", "counter")
	p.sample("community_flight_dropped_total", "", float64(Flight().Dropped()))

	if r != nil {
		if lats := r.Latencies(); len(lats) > 0 {
			p.header("community_latency_seconds", "Engine latency distributions by class (detect, level, kernel pass).", "histogram")
			for _, lp := range lats {
				sel := promLabel("class", lp.Class)
				base := sel[:len(sel)-1] // reopen the label set to append le
				sawInf := false
				for _, b := range lp.Buckets {
					p.printf("community_latency_seconds_bucket%s,le=\"%s\"} %d\n", base, promFloat(b.LeSec), b.Count)
					if math.IsInf(b.LeSec, 1) {
						sawInf = true
					}
				}
				if !sawInf {
					p.printf("community_latency_seconds_bucket%s,le=\"+Inf\"} %d\n", base, lp.Count)
				}
				p.printf("community_latency_seconds_sum%s %s\n", sel, promFloat(lp.SumSec))
				p.printf("community_latency_seconds_count%s %d\n", sel, lp.Count)
			}
		}
	}

	return p.err
}

// promContentType is the exposition format's content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// promHandler serves /metrics/prom from the live recorder and ledger.
func promHandler(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", promContentType)
	WritePrometheus(w, liveRec.Load(), liveLedger.Load(), nil)
}
