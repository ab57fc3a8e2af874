package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// traceDoc mirrors the Chrome trace_event "JSON Object Format" WriteTrace
// emits.
type traceDoc struct {
	DisplayTimeUnit string       `json:"displayTimeUnit"`
	TraceEvents     []traceEvent `json:"traceEvents"`
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// traceRecorder records two phases' worth of spans across every category.
func traceRecorder() *Recorder {
	r := New()
	for phase := 0; phase < 2; phase++ {
		ph := r.BeginPhase(phase, 100, 400)
		k := r.Begin(KernelScore)
		k.End()
		m := r.Begin(KernelMatchPass)
		m.EndArgs("pairs", 7, "passes", 2)
		c := r.Begin(KernelContractDedup)
		c.End()
		ph.End()
	}
	return r
}

func writeTraceDoc(t *testing.T, r *Recorder) (string, traceDoc) {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	return buf.String(), doc
}

func TestWriteTraceValidJSON(t *testing.T) {
	_, doc := writeTraceDoc(t, traceRecorder())
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q", doc.DisplayTimeUnit)
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Fatalf("negative interval: %+v", ev)
			}
			if _, ok := ev.Args["phase"]; !ok {
				t.Fatalf("X event missing phase arg: %+v", ev)
			}
		default:
			t.Fatalf("unexpected ph %q in %+v", ev.Ph, ev)
		}
	}
	if meta != 4 {
		t.Fatalf("%d thread_name metadata events, want 4 tracks", meta)
	}
	// 2 phases × (phase + kernel + match + contract) spans.
	if complete != 8 {
		t.Fatalf("%d complete events, want 8", complete)
	}
	// The EndArgs values survive into args.
	var foundArgs bool
	for _, ev := range doc.TraceEvents {
		if ev.Name == "pass" && ev.Args["pairs"] == float64(7) && ev.Args["passes"] == float64(2) {
			foundArgs = true
		}
	}
	if !foundArgs {
		t.Fatal("span args missing from trace events")
	}
}

func TestWriteTraceMonotonicPerThread(t *testing.T) {
	_, doc := writeTraceDoc(t, traceRecorder())
	last := map[int]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Ts < last[ev.Tid] {
			t.Fatalf("track %d goes backwards: ts %.3f after %.3f", ev.Tid, ev.Ts, last[ev.Tid])
		}
		last[ev.Tid] = ev.Ts
	}
	if len(last) == 0 {
		t.Fatal("no complete events")
	}
}

func TestWriteTraceStableAcrossFlushes(t *testing.T) {
	r := traceRecorder()
	first, doc1 := writeTraceDoc(t, r)
	second, doc2 := writeTraceDoc(t, r)
	// WriteTrace is a snapshot, not a drain: flushing twice yields the same
	// bytes, and every event keeps its pid/tid identity.
	if first != second {
		t.Fatal("second flush differs from first")
	}
	for i := range doc1.TraceEvents {
		a, b := doc1.TraceEvents[i], doc2.TraceEvents[i]
		if a.Pid != 1 || a.Pid != b.Pid || a.Tid != b.Tid {
			t.Fatalf("event %d changed identity: %+v vs %+v", i, a, b)
		}
	}
	// Category → tid mapping is fixed: phase=1 kernel=2 match=3 contract=4.
	want := map[string]int{CatPhase: 1, CatKernel: 2, CatMatch: 3, CatContract: 4}
	for _, ev := range doc1.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if tid, ok := want[ev.Cat]; ok && ev.Tid != tid {
			t.Fatalf("category %q on track %d, want %d", ev.Cat, ev.Tid, tid)
		}
	}
}

func TestWriteTraceNilAndEmpty(t *testing.T) {
	var nilRec *Recorder
	var buf bytes.Buffer
	if err := nilRec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil recorder wrote %q", buf.String())
	}
	// An enabled recorder with no spans still writes a loadable document.
	_, doc := writeTraceDoc(t, New())
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			t.Fatalf("empty recorder emitted non-metadata event %+v", ev)
		}
	}
}
