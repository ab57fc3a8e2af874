package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestNilFlightRecorderIsSafe: the disabled ring accepts every call.
func TestNilFlightRecorderIsSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightSpan, "kernel", "score", "", 1)
	f.Reset()
	if f.Len() != 0 || f.Total() != 0 || f.Dropped() != 0 || f.Events() != nil {
		t.Fatal("nil flight recorder holds state")
	}
}

// TestFlightRingWraps: past capacity the ring keeps only the newest window,
// in sequence order.
func TestFlightRingWraps(t *testing.T) {
	var f FlightRecorder
	const total = flightSlots + 500
	for i := 0; i < total; i++ {
		f.Record(FlightMark, "test", "tick", "", int64(i))
	}
	if f.Len() != flightSlots {
		t.Fatalf("Len = %d, want capacity %d", f.Len(), flightSlots)
	}
	if f.Total() != total {
		t.Fatalf("Total = %d, want %d", f.Total(), total)
	}
	evs := f.Events()
	if len(evs) != flightSlots {
		t.Fatalf("Events len = %d, want %d", len(evs), flightSlots)
	}
	for i, ev := range evs {
		if want := int64(total - flightSlots + i); ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
}

// TestFlightConcurrentWriters hammers the ring from many goroutines while a
// reader snapshots. Under -race this pins the slot-lock discipline; the
// accounting check is that nothing is both dropped and recorded.
func TestFlightConcurrentWriters(t *testing.T) {
	var f FlightRecorder
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				f.Record(FlightSpan, "worker", "op", "", int64(i))
				if i%64 == 0 {
					f.Events()
				}
			}
		}(w)
	}
	wg.Wait()
	if f.Total() != workers*per {
		t.Fatalf("Total = %d, want %d", f.Total(), workers*per)
	}
	evs := f.Events()
	// A drop leaves at most one hole in the final window, so the snapshot is
	// at least capacity minus total drops.
	if int64(len(evs)) < flightSlots-f.Dropped() {
		t.Fatalf("snapshot lost too many events: %d kept, %d dropped", len(evs), f.Dropped())
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("snapshot not monotone in Seq: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
}

// TestFlightDumpJSON: the dump is valid JSON carrying the ring plus process
// context, and includes live recorder and ledger state when attached.
func TestFlightDumpJSON(t *testing.T) {
	Flight().Reset()
	defer Flight().Reset()
	r, led := New(), NewLedger()
	liveRec.Store(r)
	defer liveRec.Store(nil)
	liveLedger.Store(led)
	defer liveLedger.Store(nil)
	r.Add(CtrMatchRounds, 3)
	r.ObserveLatency(KernelDetect, 1<<21)
	led.Record(LevelStats{Level: 0, Vertices: 100, OutVertices: 60, Edges: 400, Metric: 0.3})
	Flight().Record(FlightSpan, "kernel", "score", "", 42)

	var buf bytes.Buffer
	if err := Flight().WriteDump(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if d.Reason != "test" || d.PID != os.Getpid() || d.GoVersion == "" {
		t.Fatalf("dump header wrong: %+v", d)
	}
	if len(d.Events) != 1 || d.Events[0].Name != "score" {
		t.Fatalf("dump events = %+v, want the one span", d.Events)
	}
	if d.Counters["match_rounds"] != 3 {
		t.Fatalf("dump counters = %v, want match_rounds=3", d.Counters)
	}
	if len(d.Latencies) != 1 || d.Latencies[0].Class != "detect" {
		t.Fatalf("dump latencies = %+v", d.Latencies)
	}
	if d.Converge == nil || len(d.Converge.Levels) != 1 {
		t.Fatalf("dump convergence = %+v, want one level", d.Converge)
	}
	if d.Runtime == nil || d.Runtime.Goroutines <= 0 {
		t.Fatalf("dump runtime sample missing: %+v", d.Runtime)
	}
}

// TestWriteFlightArtifact: the black-box file lands under the directory,
// named by pid, and parses back.
func TestWriteFlightArtifact(t *testing.T) {
	Flight().Reset()
	defer Flight().Reset()
	Flight().Record(FlightWarning, "ledger", "metric-decrease", "test detail", 0)
	dir := t.TempDir()
	path, err := WriteFlightArtifact(dir, "unit")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || !strings.HasPrefix(filepath.Base(path), "flight_") {
		t.Fatalf("artifact path %q not under %q with flight_ prefix", path, dir)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d FlightDump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if d.Reason != "unit" || len(d.Events) != 1 || d.Events[0].Detail != "test detail" {
		t.Fatalf("artifact content wrong: %+v", d)
	}
}

// TestLedgerWarningsReachFlight: ledger anomalies mirror into the process
// ring (the black box must show what the ledger flagged before a crash).
func TestLedgerWarningsReachFlight(t *testing.T) {
	Flight().Reset()
	defer Flight().Reset()
	l := NewLedger()
	l.Record(LevelStats{Level: 0, Vertices: 10, OutVertices: 8, Metric: 0.5})
	l.Record(LevelStats{Level: 1, Vertices: 8, OutVertices: 6, Metric: 0.2}) // decrease
	evs := Flight().Events()
	if len(evs) != 1 || evs[0].Kind != FlightWarning || evs[0].Name != WarnMetricDecrease {
		t.Fatalf("flight events = %+v, want one mirrored %s warning", evs, WarnMetricDecrease)
	}
}

// TestFlightOnSIGQUITStopIdempotent: installing and stopping the handler is
// clean, and stop may be called twice (both CLIs defer it alongside other
// cleanups).
func TestFlightOnSIGQUITStopIdempotent(t *testing.T) {
	stop := FlightOnSIGQUIT(t.TempDir())
	stop()
	stop()
}
