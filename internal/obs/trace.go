package obs

import (
	"bufio"
	"fmt"
	"io"
)

// WriteTrace renders the recorder's span timeline as Chrome trace_event JSON
// (the "JSON Array Format" with a traceEvents wrapper), loadable in
// chrome://tracing or https://ui.perfetto.dev. Categories map to tracks:
// every span becomes a complete ("ph":"X") event with microsecond
// timestamps; the pid is always 1 and the tid encodes the category so the
// phase row sits above the kernel row above the sub-kernel rows.
func (r *Recorder) WriteTrace(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	spans := make([]span, len(r.spans))
	copy(spans, r.spans)
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n"); err != nil {
		return err
	}
	// Thread metadata: name the tracks once so the viewer shows category
	// names instead of bare tids.
	tracks := []struct {
		tid  int
		name string
	}{
		{1, "phase"}, {2, "kernel"}, {3, "match"}, {4, "contract"},
	}
	first := true
	for _, t := range tracks {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw,
			`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`,
			t.tid, t.name)
	}
	for i := range spans {
		sp := &spans[i]
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		st := &stages[sp.k]
		name := st.name
		if st.cat == CatPhase {
			name = fmt.Sprintf("phase %d", sp.phase)
		}
		fmt.Fprintf(bw,
			`{"name":%q,"cat":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"phase":%d`,
			name, st.cat, float64(sp.start)/1e3, float64(sp.dur)/1e3,
			traceTID(st.cat), sp.phase)
		if sp.k1 != "" {
			fmt.Fprintf(bw, ",%q:%d", sp.k1, sp.v1)
		}
		if sp.k2 != "" {
			fmt.Fprintf(bw, ",%q:%d", sp.k2, sp.v2)
		}
		bw.WriteString("}}")
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// traceTID maps a span category to a stable trace-viewer track.
func traceTID(cat string) int {
	switch cat {
	case CatPhase:
		return 1
	case CatKernel:
		return 2
	case CatMatch:
		return 3
	case CatContract:
		return 4
	}
	return 5
}
