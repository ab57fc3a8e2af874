package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graphio"
	"repro/internal/metrics"
)

// FuzzShardedMapped feeds mmapcsr images through the pure-Go open path into
// a two-shard detection. The open checks only O(n) structure, so adjacency
// content is whatever the image holds: every input must either fail with an
// error or yield a valid partition, never panic. The seeds are a valid
// StreamMapped file and copies whose adjacency entries are rewritten out of
// range, negative, duplicated and descending. Run with
// `go test -fuzz=FuzzShardedMapped ./internal/core` to explore beyond them.
func FuzzShardedMapped(f *testing.F) {
	path := filepath.Join(f.TempDir(), "g.mmapcsr")
	edges := [][3]int64{{0, 1, 2}, {1, 2, 1}, {2, 2, 4}, {3, 0, 5}, {4, 1, 3}, {2, 5, 1}, {5, 4, 2}}
	src := graphio.EdgeSource(func(yield func(u, v, w int64) error) error {
		for _, e := range edges {
			if err := yield(e[0], e[1], e[2]); err != nil {
				return err
			}
		}
		return nil
	})
	if _, err := graphio.StreamMapped(path, 6, src, graphio.StreamOptions{}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// Header word 6 is the adjacency section's byte offset. Row 1 of this
	// graph is [0 2 4]: entries 2, 3 and 4 of the section.
	offAdj := int(binary.LittleEndian.Uint64(valid[8*6:]))
	for _, rewrite := range []map[int]int64{
		{4: 60},       // out of range
		{2: -1},       // negative
		{3: 0},        // duplicate of the entry before
		{2: 2, 3: 0},  // descending
		{4: 1},        // self entry
		{2: 1 << 40},  // far out of range
		{3: -1 << 62}, // far negative
	} {
		in := bytes.Clone(valid)
		for i, v := range rewrite {
			binary.LittleEndian.PutUint64(in[offAdj+8*i:], uint64(v))
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		mp, err := graphio.OpenMappedReaderAt(bytes.NewReader(in), int64(len(in)))
		if err != nil {
			return
		}
		res, err := DetectSharded(context.Background(), mp.CSR(), ShardOptions{
			Shards: 2,
			Opt:    Options{Threads: 1, Engine: EngineMatching},
		})
		if err != nil {
			return
		}
		if err := metrics.ValidatePartition(res.CommunityOf, mp.NumVertices(), res.NumCommunities); err != nil {
			t.Fatalf("accepted image produced an invalid partition: %v", err)
		}
	})
}
