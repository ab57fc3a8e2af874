// Command convert translates graphs between the supported formats:
// whitespace edge lists (SNAP-style), the compact binary format, METIS
// .graph files, and the memory-mappable mmapcsr layout. It round-trips
// through the bucketed in-memory representation, so duplicate edges
// accumulate and self-loops fold into the self-loop array on the way.
//
// The default -from auto sniffs binary and mmapcsr inputs by their magic
// numbers and falls back to the edge-list parser; METIS inputs need an
// explicit -from metis. Reading mmapcsr requires -in (the format is random
// access), and writing it to stdout works like any other format.
//
// Examples:
//
//	convert -in soc-LiveJournal1.txt -out lj.bin -to binary
//	convert -in lj.bin -out lj.mmapcsr -to mmapcsr
//	convert -in lj.mmapcsr -to metis > lj.graph
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"

	"repro/internal/graph"
	"repro/internal/graphio"
)

func main() {
	var (
		inPath  = flag.String("in", "", "input file (default stdin; mmapcsr input requires a file)")
		outPath = flag.String("out", "", "output file (default stdout)")
		from    = flag.String("from", "auto", "input format: auto | edgelist | binary | metis | mmapcsr")
		to      = flag.String("to", "binary", "output format: edgelist | binary | metis | mmapcsr")
		threads = flag.Int("threads", 0, "worker count (0 = GOMAXPROCS)")
		compact = flag.Bool("compact", true, "compact bucket storage before writing")
	)
	flag.Parse()

	g, err := readInput(*inPath, *from, *threads)
	if err != nil {
		fatal(err)
	}
	if *compact {
		graph.Compact(*threads, g)
	}
	slog.Info("converted graph", "vertices", g.NumVertices(), "edges", g.NumEdges(),
		"weight", g.TotalWeight(*threads))

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		out = f
	}
	if err := write(out, *to, *threads, g); err != nil {
		fatal(err)
	}
}

// readInput opens and parses the input. mmapcsr needs the path (it is read
// by random access and materialized through the builder); everything else
// streams, so stdin works.
func readInput(path, format string, p int) (*graph.Graph, error) {
	if format == "mmapcsr" || format == "auto" {
		if path == "" && format == "mmapcsr" {
			return nil, fmt.Errorf("reading mmapcsr requires -in FILE (the format is not streamable)")
		}
		if path != "" {
			mapped, err := sniffFileMapped(path)
			if err != nil {
				return nil, err
			}
			if format == "mmapcsr" && !mapped {
				return nil, fmt.Errorf("%s does not start with the mmapcsr magic", path)
			}
			if mapped {
				return readMapped(path, p)
			}
		}
	}
	var in io.Reader = os.Stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		in = f
	}
	return read(in, format, p)
}

// sniffFileMapped reports whether the file starts with the mmapcsr magic.
func sniffFileMapped(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	return graphio.SniffMapped(f), nil
}

// readMapped materializes an mmapcsr file with one sequential sweep over its
// rows, so it hints the kernel accordingly.
func readMapped(path string, p int) (*graph.Graph, error) {
	mp, err := graphio.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	defer mp.Close()
	mp.Advise(graphio.AdviseSequential)
	return graph.FromCSR(p, mp.CSR())
}

func read(r io.Reader, format string, p int) (*graph.Graph, error) {
	switch format {
	case "auto":
		// Sniff the compact binary magic from the stream; anything else is
		// parsed as an edge list (METIS needs an explicit -from metis).
		br := bufio.NewReader(r)
		head, err := br.Peek(8)
		if err == nil && graphio.SniffBinaryMagic(head) {
			return graphio.ReadBinary(br, p)
		}
		return graphio.ReadEdgeList(br, p, 0)
	case "edgelist":
		return graphio.ReadEdgeList(r, p, 0)
	case "binary":
		return graphio.ReadBinary(r, p)
	case "metis":
		return graphio.ReadMETIS(r, p)
	}
	return nil, fmt.Errorf("unknown input format %q", format)
}

func write(w io.Writer, format string, p int, g *graph.Graph) error {
	switch format {
	case "edgelist":
		return graphio.WriteEdgeList(w, g)
	case "binary":
		return graphio.WriteBinary(w, g)
	case "metis":
		return graphio.WriteMETIS(w, g)
	case "mmapcsr":
		return graphio.WriteMapped(w, p, g)
	}
	return fmt.Errorf("unknown output format %q", format)
}

func fatal(err error) {
	slog.Error(err.Error())
	os.Exit(1)
}
