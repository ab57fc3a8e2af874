// Command perf is the repository's benchmark. It measures what the paper
// reports, input edges per second (Table III) and the speed-up from one to
// two threads (Figs. 1–2), end to end on five workloads, and splits each
// op's time over the layers the repository's modules implement. See
// README.md for the workloads, the metrics and how to read a trace.
//
// One run measures one workload in one process:
//
//	bash cmd/perf/run.sh --workload rmat-agglom --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package (a module of its own, next to the main one)
// under .bench_build and runs it with the given flags. A run generates the
// workload's inputs from -seed, sets the system up several times, warms
// up, then runs closed-loop ops (one at a time) for -seconds and checks
// every op's output. With -trace 0 it prints the end-to-end metrics,
// measured untraced; with -trace 1 it runs untraced and traced ops in turn
// and prints the per-layer metrics. The last line of standard output is a
// JSON object {"correct", "attempted", "failed", "metrics"}; a table of the
// same numbers, the host and the sample counts goes to standard error. The
// exit status is 1 when any check failed and 2 when the run could not
// start.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"
)

// workRoot holds each run's scratch directory, relative to the working
// directory (the checkout root under run.sh).
const workRoot = ".bench_build"

func main() { os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr)) }

func benchMain(args []string, stdout, stderr io.Writer) int {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "seconds the measured loop runs")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	traceOut := fs.String("trace-out", "", "write the run's spans as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := lookup(*name); !ok {
		fmt.Fprintf(stderr, "perf: unknown workload %q; want one of %s\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perf: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 2
	}
	dir, err := os.MkdirTemp(workRoot, "work-")
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 2
	}
	defer os.RemoveAll(dir)

	cfg := config{
		workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
		sizes: benchSizes, minReps: minReps, dir: dir,
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 2
	}
	renderTable(stderr, cfg, res)
	if *traceOut != "" {
		if err := writeTrace(*traceOut, cfg, res); err != nil {
			fmt.Fprintln(stderr, "perf:", err)
			return 2
		}
	}
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(stderr, "perf:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	return exitCode(res)
}

// renderTable prints the run for a reader: host, sample counts, op latency
// and every metric with its unit.
func renderTable(w io.Writer, cfg config, res *runResult) {
	m := hostMeta()
	fmt.Fprintf(w, "perf %s seed=%d seconds=%v trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(w, "host: %s %s/%s num_cpu=%d gomaxprocs=%d\n", m.GoVersion, m.GOOS, m.GOARCH, m.NumCPU, m.GOMAXPROCS)
	s := res.samples
	fmt.Fprintf(w, "samples: set-up %d, warm-up %d, 2-thread %d, 1-thread %d, traced %d; input %d edges\n",
		s.Setup, s.Warmup, s.Ops2T, s.Ops1T, s.Traced, res.edges)
	for _, ops := range []struct {
		threads int
		s       []float64
	}{{maxThreads, res.op2T}, {1, res.op1T}} {
		if len(ops.s) == 0 {
			continue
		}
		q := quartiles(ops.s)
		fmt.Fprintf(w, "%d-thread op ms: p25 %.1f  p50 %.1f  p75 %.1f (n=%d)", ops.threads, 1e3*q[0], 1e3*q[1], 1e3*q[2], len(ops.s))
		if p, v, ok := tail(ops.s); ok {
			fmt.Fprintf(w, "  p%g %.1f", float64(p)/10, 1e3*v)
		}
		fmt.Fprintf(w, "; %.4g edges/s\n", float64(res.edges)/q[1])
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit")
	for _, d := range defs {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	tw.Flush()
	for _, e := range res.errs {
		fmt.Fprintln(w, "FAILED:", e)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}

// writeTrace writes the run's spans with the context needed to read them.
func writeTrace(path string, cfg config, res *runResult) error {
	b, err := json.MarshalIndent(struct {
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Traced   bool    `json:"traced"`
		Host     any     `json:"host"`
		Samples  samples `json:"samples"`
		Spans    []span  `json:"spans"`
	}{cfg.workload, cfg.seed, cfg.trace, hostMeta(), res.samples, res.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
