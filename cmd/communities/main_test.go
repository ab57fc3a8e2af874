package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/obs"
	"repro/internal/report"
)

func TestParseKernels(t *testing.T) {
	cases := []struct {
		in      string
		wantM   core.MatchKernel
		wantC   core.ContractKernel
		wantErr bool
	}{
		{"worklist,bucket", core.MatchWorklist, core.ContractBucket, false},
		{"edgesweep,listchase", core.MatchEdgeSweep, core.ContractListChase, false},
		{"worklist,bucket-noncontig", 0, 0, true},
		{"worklist", 0, 0, true},
		{"worklist,bucket,extra", 0, 0, true},
		{"nope,bucket", 0, 0, true},
		{"worklist,nope", 0, 0, true},
	}
	for _, c := range cases {
		var opt core.Options
		err := parseKernels(c.in, &opt)
		if c.wantErr {
			if err == nil {
				t.Errorf("parseKernels(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseKernels(%q): %v", c.in, err)
			continue
		}
		if opt.Matching != c.wantM || opt.Contraction != c.wantC {
			t.Errorf("parseKernels(%q) = %v/%v", c.in, opt.Matching, opt.Contraction)
		}
	}
}

func TestLoadGraphGenerators(t *testing.T) {
	for _, name := range []string{"karate", "cliquechain"} {
		g, err := loadGraph("", "edgelist", name, 10, 100, 1, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumVertices() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
	}
	g, err := loadGraph("", "edgelist", "lj", 10, 500, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 500 {
		t.Fatalf("lj |V| = %d", g.NumVertices())
	}
}

func TestLoadGraphErrors(t *testing.T) {
	if _, err := loadGraph("x.txt", "edgelist", "karate", 10, 1, 1, 1); err == nil {
		t.Error("accepted both -in and -gen")
	}
	if _, err := loadGraph("", "edgelist", "", 10, 1, 1, 1); err == nil {
		t.Error("accepted neither -in nor -gen")
	}
	if _, err := loadGraph("", "edgelist", "bogus", 10, 1, 1, 1); err == nil {
		t.Error("accepted unknown generator")
	}
	if _, err := loadGraph("/does/not/exist", "edgelist", "", 10, 1, 1, 1); err == nil {
		t.Error("accepted missing file")
	}
}

func TestLoadGraphFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := loadGraph(path, "edgelist", "", 10, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("|E| = %d", g.NumEdges())
	}
	if _, err := loadGraph(path, "bogus", "", 10, 1, 1, 1); err == nil {
		t.Error("accepted unknown format")
	}
}

func TestRunName(t *testing.T) {
	if runName("file.txt", "") != "file.txt" || runName("", "lj") != "gen:lj" {
		t.Fatal("runName wrong")
	}
}

// tailArtifacts returns an artifact tail writing -json, -ledger and -out
// under dir with the doctor on, and the options recording into it.
func tailArtifacts(dir string) (*artifacts, core.Options) {
	rec, led := obs.New(), obs.NewLedger()
	art := &artifacts{
		jsonPath:   filepath.Join(dir, "run.json"),
		ledgerPath: filepath.Join(dir, "ledger.jsonl"),
		doctorOn:   true,
		outPath:    filepath.Join(dir, "comm.txt"),
		rec:        rec, led: led,
	}
	return art, core.Options{Threads: 2, Recorder: rec, Ledger: led}
}

// checkTail asserts what both detection paths' artifact tails must leave:
// a -json file equal byte for byte to the line -ledger appended, read back
// as one manifest, and an -out file holding comm.
func checkTail(t *testing.T, art *artifacts, comm []int64) *report.Manifest {
	t.Helper()
	js, err := os.ReadFile(art.jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	line, err := os.ReadFile(art.ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, line) {
		t.Fatalf("-json file differs from the -ledger line:\n%s\n%s", js, line)
	}
	ms, skipped, err := report.ReadManifestFile(art.jsonPath)
	if err != nil || skipped != 0 || len(ms) != 1 {
		t.Fatalf("-json file read as %d manifests (%d skipped, err %v), want one", len(ms), skipped, err)
	}
	m := ms[0]
	if m.Kind != "run" || m.Summary == nil || m.Verdict == nil || len(m.Levels) == 0 {
		t.Fatalf("manifest lacks summary, verdict or levels: %+v", m)
	}
	var want bytes.Buffer
	if err := graphio.WriteCommunities(&want, comm); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(art.outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want.Bytes()) {
		t.Fatal("-out file does not hold the run's assignment")
	}
	return m
}

func TestArtifactTailSingleImage(t *testing.T) {
	g, _, err := gen.LJSim(2, gen.DefaultLJSim(3000, 1))
	if err != nil {
		t.Fatal(err)
	}
	art, opt := tailArtifacts(t.TempDir())
	res, err := core.DetectContext(context.Background(), g, opt)
	if err != nil {
		t.Fatal(err)
	}
	manifest := func() *report.Manifest { return singleManifest("gen:lj", g, 2, opt, res) }
	if err := art.write(manifest, res.CommunityOf, res.NumCommunities); err != nil {
		t.Fatal(err)
	}
	m := checkTail(t, art, res.CommunityOf)
	if m.Options.Shards != 0 || m.Graph.Vertices != 3000 || m.Summary.Communities != res.NumCommunities || m.Summary.MinSize < 1 {
		t.Fatalf("single-image manifest %+v, summary %+v", m.Options, m.Summary)
	}
}

func TestArtifactTailSharded(t *testing.T) {
	sr := shardedRun{genName: "rmat", scale: 12, seed: 1, threads: 2, shards: 4}
	art, opt := tailArtifacts(t.TempDir())
	if err := runSharded(context.Background(), sr, opt, art); err != nil {
		t.Fatal(err)
	}
	// Sharded detection is deterministic at a fixed shard count, so a second
	// run of the same input reproduces the assignment the tail wrote.
	csr, _, _, _, cleanup, err := loadShardCSR(sr)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	res, err := core.DetectSharded(context.Background(), csr, core.ShardOptions{Shards: 4, Opt: core.Options{Threads: 2}})
	if err != nil {
		t.Fatal(err)
	}
	m := checkTail(t, art, res.CommunityOf)
	if m.Options.Shards != 4 || m.Graph.Vertices != csr.NumVertices() || m.Summary.Communities != res.NumCommunities {
		t.Fatalf("sharded manifest %+v, summary %+v", m.Options, m.Summary)
	}
}
