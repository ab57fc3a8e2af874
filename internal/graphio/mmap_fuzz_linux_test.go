//go:build linux

package graphio

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzMappedOpenPaths is the differential check between the two mmapcsr
// open paths, which share decodeMappedHeader: every image, padded to
// OpenMapped's one-page minimum, is written to a file and opened both
// through a real mapping (newMappedFromData) and through the pure-Go reader
// (OpenMappedReaderAt). Both must accept or both reject, accepted images
// must serve equal headers and CSR sections, and neither may panic.
func FuzzMappedOpenPaths(f *testing.F) {
	if !mmapSupported {
		f.Skip("memory mapping unsupported on this host")
	}
	limitVertices(f)
	for _, in := range mappedSeeds(f) {
		f.Add(in)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < mappedPage {
			in = append(bytes.Clone(in), make([]byte, mappedPage-len(in))...)
		}
		path := filepath.Join(dir, "image.mmapcsr")
		if err := os.WriteFile(path, in, 0o600); err != nil {
			t.Fatal(err)
		}
		fh, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()
		size := int64(len(in))
		data, err := mmapFile(fh, size)
		if err != nil {
			t.Fatal(err)
		}
		defer munmapFile(data)

		mapped, mapErr := newMappedFromData(data, size)
		read, readErr := OpenMappedReaderAt(bytes.NewReader(in), size)
		if (mapErr == nil) != (readErr == nil) {
			t.Fatalf("open paths disagree: mapping says %v, reader says %v", mapErr, readErr)
		}
		if mapErr != nil {
			return
		}
		if mapped.lay != read.lay {
			t.Fatalf("headers differ: mapping %+v, reader %+v", mapped.lay, read.lay)
		}
		mc, rc := mapped.CSR(), read.CSR()
		for _, s := range []struct {
			name      string
			got, want []int64
		}{
			{"offsets", mc.Offsets, rc.Offsets}, {"self", mc.Self, rc.Self},
			{"adj", mc.Adj, rc.Adj}, {"wgt", mc.Wgt, rc.Wgt},
		} {
			if !slices.Equal(s.got, s.want) {
				t.Fatalf("%s section differs between the open paths", s.name)
			}
		}
	})
}
