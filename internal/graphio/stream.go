package graphio

// StreamMapped writes an mmapcsr file from an edge stream in bounded
// memory: O(|V|) heap for the degree/offset/self arrays plus a
// caller-tunable edge-batch budget, never O(|E|). That is what lets
// `genrmat -stream` create inputs bigger than RAM (DESIGN.md §15).
//
// The writer makes two passes over the source. Pass A counts each vertex's
// raw directed degree (duplicates included — deduplication needs the sorted
// batch) and folds self-loop weights. The degree prefix then cuts the
// vertex space into contiguous buckets of at most MaxBufferedEdges raw
// entries each; because the counts are exact, every bucket's region in the
// spill file is known up front and pass B scatters each directed entry
// (u→v and v→u) to its bucket's cursor with small per-bucket write buffers
// — an out-of-core counting sort. Each bucket is then loaded alone, every
// entry placed in its row (the raw degrees size the rows exactly), each row
// sorted by neighbor, duplicate edges accumulated into one weighted entry,
// and the rows appended to the adjacency section; weights stage in a second
// temporary file because the wgt section's offset depends on the deduped
// adjacency length, known only at the end.

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// EdgeSource yields one edge stream. StreamMapped invokes it twice (count
// pass, scatter pass), so it must be deterministic: both invocations must
// yield the identical sequence. Yielding u == v records a self-loop;
// duplicate (u,v) pairs accumulate their weights, matching the builder's
// accumulation rule. The source must return the yield callback's error
// unchanged (generators built on simple loops get this for free).
type EdgeSource func(yield func(u, v, w int64) error) error

// DefaultMaxBufferedEdges is the per-bucket raw-entry budget when
// StreamOptions.MaxBufferedEdges is 0: 2 Mi directed entries ≈ 32 MiB for
// the row placement buffer.
const DefaultMaxBufferedEdges = 1 << 21

// StreamOptions tunes StreamMapped.
type StreamOptions struct {
	// MaxBufferedEdges bounds how many raw directed entries one bucket may
	// hold — the unit of in-memory placement, 16 bytes each. 0 selects
	// DefaultMaxBufferedEdges. A single vertex whose raw degree exceeds the
	// budget still forms its own (oversized) bucket.
	MaxBufferedEdges int64
	// TmpDir holds the two spill files; "" uses the output file's directory
	// (same filesystem, so the final concatenation is sequential disk I/O).
	TmpDir string
}

// StreamStats reports what a streaming write produced.
type StreamStats struct {
	Vertices    int64 // |V|
	Edges       int64 // |E| after duplicate accumulation
	TotalWeight int64 // Σ edge weights + Σ self-loops (the header field)
	RawEntries  int64 // directed entries spilled (2 per non-self input edge)
	Buckets     int   // vertex-range batches processed
}

// StreamMapped streams src into an mmapcsr file at path for a graph with n
// vertices. See the file comment for the algorithm and memory bounds.
func StreamMapped(path string, n int64, src EdgeSource, opt StreamOptions) (StreamStats, error) {
	var stats StreamStats
	if n < 0 || n >= MaxVertices {
		return stats, fmt.Errorf("graphio: stream: vertex count %d outside [0,%d)", n, MaxVertices)
	}
	budget := opt.MaxBufferedEdges
	if budget <= 0 {
		budget = DefaultMaxBufferedEdges
	}
	tmpDir := opt.TmpDir
	if tmpDir == "" {
		tmpDir = filepath.Dir(path)
	}

	// Pass A: raw directed degrees and self-loop weights.
	rawDeg := make([]int64, n)
	self := make([]int64, n)
	var raw int64
	err := src(func(u, v, w int64) error {
		if u < 0 || u >= n || v < 0 || v >= n {
			return fmt.Errorf("graphio: stream: edge (%d,%d) outside [0,%d)", u, v, n)
		}
		if w <= 0 {
			return fmt.Errorf("graphio: stream: non-positive weight %d on edge (%d,%d)", w, u, v)
		}
		if u == v {
			self[u] += w
			return nil
		}
		rawDeg[u]++
		rawDeg[v]++
		raw += 2
		return nil
	})
	if err != nil {
		return stats, err
	}
	stats.RawEntries = raw

	// Cut [0,n) into contiguous buckets of at most budget raw entries.
	// bucketLo[b] is bucket b's first vertex; bucketBase[b] its first entry
	// slot in the spill file (the exclusive prefix of bucket sizes).
	var bucketLo []int64
	var bucketBase []int64
	{
		var acc, base int64
		for x := int64(0); x < n; x++ {
			if len(bucketLo) == 0 || (acc > 0 && acc+rawDeg[x] > budget) {
				bucketLo = append(bucketLo, x)
				bucketBase = append(bucketBase, base)
				acc = 0
			}
			acc += rawDeg[x]
			base += rawDeg[x]
		}
		if n == 0 {
			bucketLo, bucketBase = []int64{0}, []int64{0}
		}
	}
	nb := len(bucketLo)
	stats.Buckets = nb
	bucketEnd := func(b int) int64 {
		if b+1 < nb {
			return bucketLo[b+1]
		}
		return n
	}
	bucketRaw := func(b int) int64 {
		if b+1 < nb {
			return bucketBase[b+1] - bucketBase[b]
		}
		return raw - bucketBase[b]
	}

	// Pass B: scatter directed entries into the spill file at their
	// bucket's cursor.
	spillF, err := os.CreateTemp(tmpDir, "mmapcsr-spill-*")
	if err != nil {
		return stats, err
	}
	defer func() {
		spillF.Close()
		os.Remove(spillF.Name())
	}()
	sp := newSpiller(spillF, bucketBase)
	bucketOf := func(x int64) int {
		// Last bucket with bucketLo <= x.
		return sort.Search(nb, func(b int) bool { return bucketLo[b] > x }) - 1
	}
	err = src(func(u, v, w int64) error {
		if u < 0 || u >= n || v < 0 || v >= n || w <= 0 {
			return fmt.Errorf("graphio: stream: source not deterministic: edge (%d,%d,%d) invalid on second pass", u, v, w)
		}
		if u == v {
			return nil
		}
		if err := sp.add(bucketOf(u), u, v, w); err != nil {
			return err
		}
		return sp.add(bucketOf(v), v, u, w)
	})
	if err != nil {
		return stats, err
	}
	if err := sp.flushAll(); err != nil {
		return stats, err
	}
	if sp.written != raw {
		return stats, fmt.Errorf("graphio: stream: source not deterministic: %d entries on second pass, %d on first", sp.written, raw)
	}

	// Per-bucket: load, place by row, sort rows, dedup, emit. Adjacency
	// streams straight into the output file at its known section offset;
	// weights stage in a second spill file.
	out, err := os.Create(path)
	if err != nil {
		return stats, err
	}
	defer out.Close()
	wgtF, err := os.CreateTemp(tmpDir, "mmapcsr-wgt-*")
	if err != nil {
		return stats, err
	}
	defer func() {
		wgtF.Close()
		os.Remove(wgtF.Name())
	}()

	// The section offsets up to adj depend only on n.
	partial := layoutFor(n, 0, 0)
	if _, err := out.Seek(partial.offAdj, io.SeekStart); err != nil {
		return stats, err
	}
	adjW := newPaddedWriter(out)
	adjW.off = partial.offAdj
	wgtW := newPaddedWriter(wgtF)

	offsets := rawDeg // reuse: a bucket's raw degrees are read before its offsets[x] are written
	var adjLen, wgtSum int64
	var entries []rowEntry
	var cursor []int64         // per-row write cursor of the current bucket
	var adjOut, wgtOut []int64 // per-bucket staged output, written in one call each
	readBuf := make([]byte, 1<<16)
	for b := 0; b < nb; b++ {
		cnt := bucketRaw(b)
		lo, hi := bucketLo[b], bucketEnd(b)
		// Rows sit in vertex order, each sized by its raw degree: cursor[r]
		// is row lo+r's next free slot, and rawDeg[x] counts the slots row
		// x still has. Once every entry is placed, each row is exactly full
		// and cursor[r] is its end.
		entries = slices.Grow(entries[:0], int(cnt))[:cnt]
		cursor = slices.Grow(cursor[:0], int(hi-lo))[:hi-lo]
		var run int64
		for x := lo; x < hi; x++ {
			cursor[x-lo] = run
			run += rawDeg[x]
		}
		// Load the bucket's region, placing each entry in its row.
		at := 24 * bucketBase[b]
		for got := int64(0); got < cnt; {
			c := int64(len(readBuf)) / 24 * 24
			if rem := (cnt - got) * 24; rem < c {
				c = rem
			}
			if _, err := io.ReadFull(io.NewSectionReader(spillF, at, c), readBuf[:c]); err != nil {
				return stats, fmt.Errorf("graphio: stream: spill read: %w", err)
			}
			for i := int64(0); i < c; i += 24 {
				x := int64(binary.LittleEndian.Uint64(readBuf[i:]))
				if x < lo || x >= hi {
					return stats, fmt.Errorf("graphio: stream: bucket %d has entries outside its vertex range", b)
				}
				if rawDeg[x] == 0 {
					return stats, fmt.Errorf("graphio: stream: source not deterministic: vertex %d overflows its counted row", x)
				}
				rawDeg[x]--
				r := x - lo
				pos := cursor[r]
				entries[pos] = rowEntry{
					v: int64(binary.LittleEndian.Uint64(readBuf[i+8:])),
					w: int64(binary.LittleEndian.Uint64(readBuf[i+16:])),
				}
				cursor[r] = pos + 1
			}
			at += c
			got += c / 24
		}
		// Sort each row by neighbor, then dedup-accumulate and emit rows
		// for vertices [lo, hi).
		adjOut, wgtOut = adjOut[:0], wgtOut[:0]
		var rowLo int64
		for x := lo; x < hi; x++ {
			offsets[x] = adjLen
			row := entries[rowLo:cursor[x-lo]]
			rowLo = cursor[x-lo]
			slices.SortFunc(row, func(a, b rowEntry) int { return cmp.Compare(a.v, b.v) })
			for i := 0; i < len(row); {
				v, w := row[i].v, row[i].w
				for i++; i < len(row) && row[i].v == v; i++ {
					w += row[i].w
				}
				adjOut = append(adjOut, v)
				wgtOut = append(wgtOut, w)
				wgtSum += w
				adjLen++
			}
		}
		if err := adjW.writeInt64s(adjOut); err != nil {
			return stats, err
		}
		if err := wgtW.writeInt64s(wgtOut); err != nil {
			return stats, err
		}
	}
	if adjLen%2 != 0 {
		return stats, fmt.Errorf("graphio: stream: odd adjacency length %d", adjLen)
	}
	var selfSum int64
	for _, s := range self {
		selfSum += s
	}
	m := adjLen / 2
	totW := wgtSum/2 + selfSum
	lay := layoutFor(n, m, totW)

	// Finish the adjacency section's padding, then append the staged
	// weights at their now-known offset.
	if err := adjW.padTo(lay.offWgt); err != nil {
		return stats, err
	}
	if err := adjW.flush(); err != nil {
		return stats, err
	}
	if err := wgtW.flush(); err != nil {
		return stats, err
	}
	if _, err := wgtF.Seek(0, io.SeekStart); err != nil {
		return stats, err
	}
	if _, err := io.Copy(out, io.LimitReader(wgtF, 8*2*m)); err != nil {
		return stats, fmt.Errorf("graphio: stream: weight concat: %w", err)
	}
	tailW := newPaddedWriter(out)
	tailW.off = lay.offWgt + 8*2*m
	if err := tailW.padTo(lay.fileSize); err != nil {
		return stats, err
	}
	if err := tailW.flush(); err != nil {
		return stats, err
	}
	// With no edges nothing is ever physically written past the self
	// section, so the seek alone does not extend the file; Truncate pins
	// the exact layout size either way.
	if err := out.Truncate(lay.fileSize); err != nil {
		return stats, err
	}

	// Header, offsets, and self sections at their fixed offsets.
	if _, err := out.Seek(0, io.SeekStart); err != nil {
		return stats, err
	}
	headW := newPaddedWriter(out)
	hdr := [mappedHeaderFields]int64{
		int64(mappedMagic), n, m, totW,
		lay.offOffsets, lay.offSelf, lay.offAdj, lay.offWgt, lay.fileSize,
	}
	if err := headW.writeInt64s(hdr[:]); err != nil {
		return stats, err
	}
	if err := headW.padTo(lay.offOffsets); err != nil {
		return stats, err
	}
	if err := headW.writeInt64s(offsets); err != nil {
		return stats, err
	}
	if err := headW.writeInt64s([]int64{adjLen}); err != nil {
		return stats, err
	}
	if err := headW.padTo(lay.offSelf); err != nil {
		return stats, err
	}
	if err := headW.writeInt64s(self); err != nil {
		return stats, err
	}
	if err := headW.flush(); err != nil {
		return stats, err
	}
	if err := out.Sync(); err != nil {
		return stats, err
	}
	stats.Vertices, stats.Edges, stats.TotalWeight = n, m, totW
	return stats, nil
}

// rowEntry is one raw directed entry of a bucket row: neighbor and weight.
type rowEntry struct{ v, w int64 }

// spiller scatters directed (row, neighbor, weight) entries into
// per-bucket regions of one spill file, each bucket buffering a few hundred
// entries before a WriteAt at its cursor — the disk half of the counting
// sort.
type spiller struct {
	f       *os.File
	cursor  []int64   // next entry slot per bucket (entry units)
	limit   []int64   // one past the bucket's last slot
	bufs    [][]int64 // per-bucket pending triples
	enc     []byte
	written int64
}

// spillBufEntries is the per-bucket buffer: 256 triples = 6 KiB each.
const spillBufEntries = 256

func newSpiller(f *os.File, base []int64) *spiller {
	nb := len(base)
	s := &spiller{
		f:      f,
		cursor: append([]int64(nil), base...),
		limit:  make([]int64, nb),
		bufs:   make([][]int64, nb),
		enc:    make([]byte, 24*spillBufEntries),
	}
	for b := 0; b < nb; b++ {
		if b+1 < nb {
			s.limit[b] = base[b+1]
		} else {
			s.limit[b] = int64(-1) // open-ended; checked by the caller's total
		}
	}
	return s
}

func (s *spiller) add(b int, x, v, w int64) error {
	if s.bufs[b] == nil {
		s.bufs[b] = make([]int64, 0, 3*spillBufEntries)
	}
	s.bufs[b] = append(s.bufs[b], x, v, w)
	if len(s.bufs[b]) == cap(s.bufs[b]) {
		return s.flush(b)
	}
	return nil
}

func (s *spiller) flush(b int) error {
	buf := s.bufs[b]
	if len(buf) == 0 {
		return nil
	}
	entries := int64(len(buf) / 3)
	if s.limit[b] >= 0 && s.cursor[b]+entries > s.limit[b] {
		return fmt.Errorf("graphio: stream: source not deterministic: bucket %d overflows its counted region", b)
	}
	for i, x := range buf {
		binary.LittleEndian.PutUint64(s.enc[8*i:], uint64(x))
	}
	if _, err := s.f.WriteAt(s.enc[:8*len(buf)], 24*s.cursor[b]); err != nil {
		return err
	}
	s.cursor[b] += entries
	s.written += entries
	s.bufs[b] = buf[:0]
	return nil
}

func (s *spiller) flushAll() error {
	for b := range s.bufs {
		if err := s.flush(b); err != nil {
			return err
		}
	}
	return nil
}
