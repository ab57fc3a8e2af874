package obs_test

// Live-scrape smoke test: run a real detection with the recorder and ledger
// attached to the metrics endpoint, then scrape /metrics/prom over HTTP the
// way a Prometheus server would. This is the end-to-end check behind the CI
// telemetry-smoke step; the in-package tests pin format details, this one
// pins the wiring (Serve registers the live pointers, the handler renders
// them, real engine counters and latency classes show up).

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/obs"
)

func TestLivePrometheusScrape(t *testing.T) {
	rec := obs.New()
	rec.SetFlight(obs.Flight())
	led := obs.NewLedger()
	srv, err := obs.Serve("127.0.0.1:0", rec, led)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer obs.SetLive(nil)
	defer obs.SetLiveLedger(nil)

	g := gen.CliqueChain(16, 8)
	if _, err := core.DetectContext(context.Background(), g, core.Options{Threads: 2, Recorder: rec, Ledger: led}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/metrics/prom", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q, want exposition format 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	if len(out) == 0 {
		t.Fatal("empty scrape")
	}
	for _, want := range []string{
		"# TYPE community_engine_events_total counter",
		"# TYPE community_go_goroutines gauge",
		"# TYPE community_latency_seconds histogram",
		`community_engine_events_total{counter="match_rounds"}`,
		`community_latency_seconds_bucket{class="detect",le=`,
		`community_latency_seconds_count{class="level"}`,
		"community_convergence_levels",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// The engine really ran: at least one matching round was counted and the
	// detect histogram saw exactly one observation.
	if rec.Counter(obs.CtrMatchRounds) == 0 {
		t.Fatal("no matching rounds recorded")
	}
	if n := rec.LatencyHist(obs.LatDetect).Count(); n != 1 {
		t.Fatalf("detect latency count = %d, want 1", n)
	}

	// The flight endpoint serves a parseable dump of the same run.
	fresp, err := http.Get(fmt.Sprintf("http://%s/debug/flight", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	fbody, err := io.ReadAll(fresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(fbody), `"reason": "http"`) {
		t.Fatalf("flight dump missing reason: %s", fbody[:min(len(fbody), 200)])
	}
}
