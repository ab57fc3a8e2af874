package obs

import (
	"testing"
)

// TestDisabledRecorderAllocs pins the disabled-path contract: threading a
// nil recorder through stage begins/ends, hot adds, and folds allocates
// nothing. This is what lets the engine instrument unconditionally.
func TestDisabledRecorderAllocs(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		ph := r.BeginPhase(0, 10, 20)
		s := r.Begin(KernelScore)
		h := r.Hot()
		h.Add(CtrMatchClaims, 1)
		r.FoldHot()
		s.End()
		r.Begin(KernelMatchPass).NoSample().End()
		ph.EndArgs("a", 1, "b", 2)
		r.ObserveLatency(KernelDetect, 12345)
		r.BeginAllocs()
		r.EndAllocs()
		var fl *FlightRecorder
		fl.Record(FlightSpan, "kernel", "score", "", 1)
		var lh *LatencyHist
		lh.Observe(99)
		var p *Profiler
		p.TriggerCPU("warn")
		p.TriggerAnomaly("doctor")
		_ = p.Last()
		var led *Ledger
		led.AddWarning(-1, WarnDrift, "drift")
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocates %v allocs/op, want 0", allocs)
	}
}

// TestEnabledStageAllocs pins the enabled stage path at zero allocations
// once the recorder is warm: after a Reset the span buffer keeps its
// capacity and every labeled stage's pprof label context is cached, so
// opening and closing stages (label swap, span append, class observation,
// flight mirror) allocates nothing.
func TestEnabledStageAllocs(t *testing.T) {
	r := New()
	r.SetFlight(&FlightRecorder{})
	run := func() {
		ph := r.BeginPhase(0, 10, 20)
		for k := Kernel(0); k < numKernels; k++ {
			if stages[k].name != "" {
				r.Begin(k).EndArgs("a", 1, "b", 2)
			}
		}
		r.Begin(KernelContract).NoSample().End()
		r.ObserveLatency(KernelLevel, ph.End().Nanoseconds())
		r.ObserveLatency(KernelDetect, 12345)
		r.ClearLabels()
	}
	for i := 0; i < 4; i++ {
		run()
	}
	r.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		run()
		r.Reset()
	})
	if allocs != 0 {
		t.Fatalf("enabled stage path allocates %v allocs/op after a warm Reset, want 0", allocs)
	}
}

// BenchmarkDisabledSpan measures the no-op span path — should be a couple of
// predictable branches, low single-digit nanoseconds.
func BenchmarkDisabledSpan(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := r.Begin(KernelScore)
		s.End()
	}
}

// BenchmarkDisabledHotAdd measures the no-op hot-counter flush.
func BenchmarkDisabledHotAdd(b *testing.B) {
	var r *Recorder
	h := r.Hot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(CtrMatchClaims, 1)
	}
}

// BenchmarkEnabledSpan measures the recording span path (mutex + append into
// a pre-grown buffer) for comparison; steady state should not allocate.
func BenchmarkEnabledSpan(b *testing.B) {
	r := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := r.Begin(KernelScore)
		s.End()
		if len(r.spans) > 1<<16 {
			r.Reset()
		}
	}
}

// BenchmarkEnabledHotAdd measures the enabled chunk-flush path: one atomic
// add.
func BenchmarkEnabledHotAdd(b *testing.B) {
	r := New()
	h := r.Hot()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Add(CtrMatchClaims, 1)
	}
}
