package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/par"
)

// TestNilRecorderNoOps: every exported method must be callable on a nil
// *Recorder — the disabled path the engine threads through hot layers.
func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	s := r.Begin(KernelScore)
	if s.End() < 0 || s.EndArgs("a", 1, "b", 2) < 0 {
		t.Fatal("nil recorder span returned a negative duration")
	}
	s.NoSample().End()
	ps := r.BeginPhase(0, 10, 20)
	ps.End()
	r.Add(CtrMatchRounds, 5)
	if r.Counter(CtrMatchRounds) != 0 {
		t.Fatal("nil recorder holds state")
	}
	if r.Hot() != nil || r.HotCounter(CtrMatchClaims) != nil {
		t.Fatal("nil recorder returned a hot block")
	}
	r.FoldHot()
	r.ObserveBuckets([]int64{1, 2, 3})
	if r.WorkerTimes(4) != nil {
		t.Fatal("nil recorder returned worker times")
	}
	r.FoldWorkerTimes("x", []int64{1})
	r.ObserveLatency(KernelDetect, 1)
	r.ClearLabels()
	r.Reset()
	if r.Export() != nil || r.KernelSeconds() != nil {
		t.Fatal("nil recorder exported data")
	}
	if err := r.WriteTrace(&bytes.Buffer{}); err != nil {
		t.Fatalf("nil WriteTrace: %v", err)
	}
}

// A nil Hot block must also absorb adds (hot loops receive it unguarded).
func TestNilHot(t *testing.T) {
	var h *Hot
	h.Add(CtrMatchClaims, 3)
}

func TestCountersAndHotFold(t *testing.T) {
	r := New()
	r.Add(CtrMatchRounds, 2)
	r.Add(CtrMatchRounds, 3)
	if got := r.Counter(CtrMatchRounds); got != 5 {
		t.Fatalf("Counter = %d, want 5", got)
	}
	h := r.Hot()
	h.Add(CtrMatchClaims, 7)
	h.Add(CtrMatchConflicts, 1)
	if got := r.Counter(CtrMatchClaims); got != 0 {
		t.Fatalf("hot counts visible before fold: %d", got)
	}
	r.FoldHot()
	if got := r.Counter(CtrMatchClaims); got != 7 {
		t.Fatalf("after fold Counter = %d, want 7", got)
	}
	// HotCounter addresses the same block.
	p := r.HotCounter(CtrScoreMasked)
	*p = 11
	r.FoldHot()
	if got := r.Counter(CtrScoreMasked); got != 11 {
		t.Fatalf("HotCounter fold = %d, want 11", got)
	}
	// Fold drains: second fold adds nothing.
	r.FoldHot()
	if got := r.Counter(CtrMatchClaims); got != 7 {
		t.Fatalf("second fold changed total: %d", got)
	}
}

func TestSpansAndKernelSeconds(t *testing.T) {
	r := New()
	ph := r.BeginPhase(0, 100, 400)
	s := r.Begin(KernelScore)
	time.Sleep(2 * time.Millisecond)
	scoreDur := s.End()
	m := r.Begin(KernelMatch)
	m.EndArgs("pairs", 42, "passes", 3)
	ph.End()

	ks := r.KernelSeconds()
	if len(ks) != 2 || ks[0].Kernel != "score" || ks[1].Kernel != "match" {
		t.Fatalf("KernelSeconds = %+v", ks)
	}
	if ks[0].Seconds <= 0 {
		t.Fatalf("score seconds not positive: %v", ks[0].Seconds)
	}
	// One clock: the duration End returned is the span's and the class's.
	if ks[0].Seconds != ns2s(scoreDur.Nanoseconds()) {
		t.Fatalf("score span %vs, End returned %v", ks[0].Seconds, scoreDur)
	}
	if lat := r.Latencies(); len(lat) != 2 || lat[0].Class != "score" || lat[0].SumSec != ns2s(scoreDur.Nanoseconds()) {
		t.Fatalf("latencies = %+v, want score (= %v) then match", lat, scoreDur)
	}

	if r.Phases() != 1 {
		t.Fatalf("Phases = %d, want 1", r.Phases())
	}
	p := r.Export()
	if len(p.Spans) != 3 {
		t.Fatalf("Spans = %d, want 3", len(p.Spans))
	}
	// The phase span carries vertices/edges; the match span its end args.
	if p.Spans[0].Args["vertices"] != 100 || p.Spans[0].Args["edges"] != 400 {
		t.Fatalf("phase args = %v", p.Spans[0].Args)
	}
	if p.Spans[2].Args["pairs"] != 42 {
		t.Fatalf("match args = %v", p.Spans[2].Args)
	}
	// Spans inherit the current phase.
	for _, sp := range p.Spans {
		if sp.Phase != 0 {
			t.Fatalf("span phase = %d, want 0", sp.Phase)
		}
	}
}

func TestBucketHistogram(t *testing.T) {
	r := New()
	r.ObserveBuckets([]int64{0, 1, 1, 2, 3, 5, 100})
	p := r.Export()
	want := map[int64]int64{0: 1, 1: 2, 3: 2, 7: 1, 127: 1}
	if len(p.BucketHist) != len(want) {
		t.Fatalf("hist bins = %+v", p.BucketHist)
	}
	for _, b := range p.BucketHist {
		if want[b.MaxLen] != b.Buckets {
			t.Fatalf("bin maxlen=%d got %d want %d", b.MaxLen, b.Buckets, want[b.MaxLen])
		}
	}
}

func TestWorkerTimesImbalance(t *testing.T) {
	r := New()
	times := r.WorkerTimes(4)
	times[0], times[1], times[2], times[3] = 100, 100, 100, 300
	r.FoldWorkerTimes("contract/count", times)
	p := r.Export()
	if len(p.Regions) != 1 {
		t.Fatalf("Regions = %+v", p.Regions)
	}
	reg := p.Regions[0]
	if reg.Region != "contract/count" || reg.Calls != 1 || reg.Workers != 4 {
		t.Fatalf("region = %+v", reg)
	}
	// max*workers/busy = 300*4/600 = 2.0
	if reg.Imbalance < 1.99 || reg.Imbalance > 2.01 {
		t.Fatalf("imbalance = %v, want 2.0", reg.Imbalance)
	}
	// WorkerTimes reuses and zeroes its scratch.
	times2 := r.WorkerTimes(4)
	for i, v := range times2 {
		if v != 0 {
			t.Fatalf("scratch not zeroed at %d: %d", i, v)
		}
	}
}

// ForWorkerTimes integration: busy time is recorded per worker and roughly
// covers the wall time of the region.
func TestForWorkerTimesRecords(t *testing.T) {
	r := New()
	n := 64
	times := r.WorkerTimes(par.Workers(4, n))
	used := par.ForWorkerTimes(4, n, times, func(w, lo, hi int) {
		time.Sleep(time.Millisecond)
	})
	if used < 1 {
		t.Fatalf("used = %d", used)
	}
	for w := 0; w < used; w++ {
		if times[w] <= 0 {
			t.Fatalf("worker %d has no busy time", w)
		}
	}
	r.FoldWorkerTimes("test", times[:used])
	if p := r.Export(); p.Regions[0].BusySec <= 0 {
		t.Fatalf("region busy = %+v", p.Regions[0])
	}
}

func TestResetClears(t *testing.T) {
	r := New()
	r.Begin(KernelScore).End()
	r.Add(CtrMatchRounds, 1)
	r.Hot().Add(CtrMatchClaims, 4)
	r.ObserveBuckets([]int64{5})
	r.FoldWorkerTimes("x", []int64{10})
	r.Reset()
	p := r.Export()
	if len(p.Spans) != 0 || len(p.Counters) != 0 || len(p.BucketHist) != 0 || len(p.Regions) != 0 {
		t.Fatalf("Reset left data: %+v", p)
	}
	r.FoldHot()
	if r.Counter(CtrMatchClaims) != 0 {
		t.Fatal("Reset left hot counts")
	}
}

func TestMetricsHandler(t *testing.T) {
	r := New()
	r.BeginPhase(1, 50, 200).End()
	r.Add(CtrMatchRounds, 4)
	liveRec.Store(r)
	defer liveRec.Store(nil)

	srv := httptest.NewServer(Handler())
	defer srv.Close()

	// /debug/pprof is wired explicitly on this mux (no DefaultServeMux side
	// effect): the index and the named profiles it dispatches must serve.
	// The CPU endpoint is exercised with ?seconds= elsewhere; fetching it
	// here would block for its default 30s window.
	for _, path := range []string{"/metrics/prom", "/debug/flight", "/healthz",
		"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/heap"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// The JSON sinks are gone: the live state is served by /metrics/prom
	// and /debug/flight only.
	for _, path := range []string{"/metrics", "/convergence", "/debug/vars"} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestServeBindsAndServes(t *testing.T) {
	r := New()
	led := NewLedger()
	led.Record(LevelStats{Level: 0, Vertices: 10, OutVertices: 4})
	srv, err := Serve("127.0.0.1:0", r, led)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer liveRec.Store(nil)
	defer liveLedger.Store(nil)
	base := "http://" + srv.Addr().String()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	// The served ledger shows in the exposition and in the flight dump's
	// convergence rows.
	resp, err = http.Get(base + "/metrics/prom")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "\ncommunity_convergence_levels 1\n") {
		t.Fatalf("/metrics/prom missing the served ledger:\n%s", prom)
	}
	resp, err = http.Get(base + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	err = json.NewDecoder(resp.Body).Decode(&d)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("flight dump not valid JSON: %v", err)
	}
	if d.Converge == nil || len(d.Converge.Levels) != 1 || d.Converge.Levels[0].MergedVertices != 6 {
		t.Fatalf("flight convergence = %+v, want the served ledger's one row", d.Converge)
	}
}

func TestMetricsServerCloseReleasesPort(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Close is idempotent (deferred paths may race a normal shutdown).
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	// The listener is gone: requests fail and the port can be rebound.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("endpoint still serving after Close")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port not released after Close: %v", err)
	}
	ln.Close()
}

func TestCounterNames(t *testing.T) {
	seen := map[string]bool{}
	for c := Counter(0); c < NumCounters; c++ {
		n := c.String()
		if n == "" || n == "unknown_counter" || seen[n] {
			t.Fatalf("counter %d has bad/duplicate name %q", c, n)
		}
		seen[n] = true
	}
	if Counter(-1).String() != "unknown_counter" || NumCounters.String() != "unknown_counter" {
		t.Fatal("out-of-range counters must name as unknown")
	}
}

// TestStageTable pins the stage table's shape: every span stage has a unique
// (category, name) pair, the class-bearing stages are exactly the first
// numClasses with unique class names, and only kernel-category stages set
// the kernel pprof label.
func TestStageTable(t *testing.T) {
	spans, classes := map[string]bool{}, map[string]bool{}
	for k := Kernel(0); k < numKernels; k++ {
		st := stages[k]
		if (st.class != "") != (k < numClasses) || (st.class != "" && classes[st.class]) {
			t.Fatalf("stage %d: class %q (numClasses %d)", k, st.class, numClasses)
		}
		classes[st.class] = true
		if st.name == "" {
			if k != KernelDetect && k != KernelLevel {
				t.Fatalf("stage %d has no span", k)
			}
			continue
		}
		if key := st.cat + "/" + st.name; st.cat == "" || spans[key] {
			t.Fatalf("stage %d: span %q missing a category or duplicated", k, key)
		} else {
			spans[key] = true
		}
		if st.label && st.cat != CatKernel {
			t.Fatalf("stage %d: labeled stage outside the kernel category", k)
		}
	}
}
