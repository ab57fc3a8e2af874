package community

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// perEdgeWorkers names, per kernel source file, the per-edge worker
// functions: the loop bodies the parallel sweeps hand each chunk or span.
// They count events in locals and flush them through *obs.Hot, never
// through recorder calls per event, so none of them may take the recorder.
var perEdgeWorkers = map[string][]string{
	"internal/matching/matching.go": {
		"worklistPropose", "worklistClaim", "rowCountRange", "rowScatterRange",
		"edgeSweepBest", "edgeSweepClaim",
	},
	"internal/contract/contract.go": {"countSweepRange", "scatterSweepRange", "mergeBuckets"},
	"internal/core/core.go":         {"seedSweepRange", "degreeRange"},
}

// TestPerEdgeWorkersTakeNoRecorder parses the kernel sources and fails when
// a per-edge worker takes an obs.Recorder in any form (pointer, value,
// slice...), or when a listed worker no longer exists, so a rename cannot
// silently drop it from the check.
func TestPerEdgeWorkersTakeNoRecorder(t *testing.T) {
	for file, names := range perEdgeWorkers {
		bad, err := recorderParams(file, nil, names)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bad {
			t.Errorf("%s: per-edge worker takes the recorder (count locally, flush via *obs.Hot)", b)
		}
	}
}

// TestRecorderParamsFlagsViolations proves the check can fail: a worker
// taking the recorder by pointer or by value is reported, one taking
// *obs.Hot is not, and a listed name that is missing is an error.
func TestRecorderParamsFlagsViolations(t *testing.T) {
	src := `package k
import "repro/internal/obs"
func byPointer(g int, rec *obs.Recorder, lo, hi int) {}
func byValue(r obs.Recorder) {}
func hot(h *obs.Hot, lo, hi int) {}
func (x T) byPointer(lo, hi int) {}
`
	bad, err := recorderParams("k.go", src, []string{"byPointer", "byValue", "hot"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bad, " "); got != "k.go:3 byPointer k.go:4 byValue" {
		t.Fatalf("flagged %q, want byPointer and byValue", got)
	}
	if _, err := recorderParams("k.go", src, []string{"gone"}); err == nil {
		t.Fatal("missing worker not reported")
	}
}

// recorderParams parses file (from src when non-nil) and returns
// "file:line name" for every listed top-level function with a parameter
// whose type mentions obs.Recorder. Methods do not count: the workers are
// plain functions. A listed name without a declaration is an error.
func recorderParams(file string, src any, names []string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	found := map[string]bool{}
	var bad []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Recv != nil || !slices.Contains(names, fn.Name.Name) {
			continue
		}
		found[fn.Name.Name] = true
		for _, field := range fn.Type.Params.List {
			if mentionsRecorder(field.Type) {
				bad = append(bad, fmt.Sprintf("%s:%d %s", file, fset.Position(fn.Pos()).Line, fn.Name.Name))
				break
			}
		}
	}
	for _, n := range names {
		if !found[n] {
			return nil, fmt.Errorf("%s: no function %s", file, n)
		}
	}
	return bad, nil
}

// csrFields are the raw CSR arrays. Outside internal/graph, code reads a CSR
// through Degree, Neighbors, SelfLoop and RowBounds, so the layout can change
// behind them.
var csrFields = []string{"Offsets", "Adj", "Wgt"}

// TestNoCSRFieldAccessOutsideGraph parses every non-test Go file under cmd
// and internal except internal/graph and fails on any index or slice
// expression over a raw CSR field.
func TestNoCSRFieldAccessOutsideGraph(t *testing.T) {
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path == filepath.Join("internal", "graph") {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			bad, err := csrFieldAccess(path, nil)
			for _, b := range bad {
				t.Errorf("%s: direct CSR field access outside internal/graph (use Degree/Neighbors/SelfLoop/RowBounds)", b)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestCSRFieldAccessFlagsViolations proves the check can fail: indexing or
// slicing a raw CSR field is reported, the accessor call and a mention in a
// comment are not.
func TestCSRFieldAccessFlagsViolations(t *testing.T) {
	src := `package k
func f(c *graph.CSR, i, x int64) {
	_ = c.Adj[i]
	_, _ = c.Neighbors(x)
	_ = c.Offsets[1:]
	// c.Wgt[i] in a comment
}
`
	bad, err := csrFieldAccess("k.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bad, " "); got != "k.go:3 Adj k.go:5 Offsets" {
		t.Fatalf("flagged %q, want the Adj index and the Offsets slice", got)
	}
}

// csrFieldAccess parses file (from src when non-nil) and returns
// "file:line field" for every index or slice expression whose operand is a
// selector naming a raw CSR field.
func csrFieldAccess(file string, src any) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var bad []string
	ast.Inspect(f, func(n ast.Node) bool {
		var x ast.Expr
		switch e := n.(type) {
		case *ast.IndexExpr:
			x = e.X
		case *ast.SliceExpr:
			x = e.X
		}
		if sel, ok := x.(*ast.SelectorExpr); ok && slices.Contains(csrFields, sel.Sel.Name) {
			bad = append(bad, fmt.Sprintf("%s:%d %s", file, fset.Position(sel.Pos()).Line, sel.Sel.Name))
		}
		return true
	})
	return bad, nil
}

// kernelDirs are the kernel packages whose wall-clock reads go through
// obs.NowNS: a raw time.Now there dodges the recording gate and drifts from
// the trace timeline's epoch.
var kernelDirs = []string{"internal/scoring", "internal/matching", "internal/contract", "internal/refine", "internal/plp"}

// TestKernelsReadNoWallClock parses every non-test Go file of the kernel
// packages and fails on any call of time.Now.
func TestKernelsReadNoWallClock(t *testing.T) {
	for _, dir := range kernelDirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("%s: no Go files", dir)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			bad, err := wallClockCalls(file, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range bad {
				t.Errorf("%s: kernel package reads the wall clock directly (use obs.NowNS)", b)
			}
		}
	}
}

// TestWallClockCallsFlagsViolations proves the check can fail: a planted
// time.Now() call is reported, obs.NowNS() and a mention in a comment are
// not.
func TestWallClockCallsFlagsViolations(t *testing.T) {
	src := `package k
func f() int64 {
	t0 := time.Now()
	// time.Now() in a comment
	_ = t0
	return obs.NowNS()
}
`
	bad, err := wallClockCalls("k.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bad, " "); got != "k.go:3" {
		t.Fatalf("flagged %q, want the time.Now call alone", got)
	}
}

// wallClockCalls parses file (from src when non-nil) and returns
// "file:line" for every call of time.Now.
func wallClockCalls(file string, src any) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var bad []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Now" {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" {
				bad = append(bad, fmt.Sprintf("%s:%d", file, fset.Position(call.Pos()).Line))
			}
		}
		return true
	})
	return bad, nil
}

// ctxKernelFiles are the kernel layers that take their execution state from
// exec.Ctx. A function there whose first parameter is a positional `p int`
// worker count has regrown the plumbing exec.Ctx replaced.
var ctxKernelFiles = []string{
	"internal/core/core.go", "internal/matching/matching.go", "internal/contract/contract.go",
	"internal/contract/listchase.go", "internal/scoring/scoring.go", "internal/scoring/func.go",
	"internal/refine/refine.go", "internal/hierarchy/hierarchy.go", "internal/plp/plp.go",
}

// TestKernelsTakeNoPositionalWorkerCount parses the exec.Ctx kernel files
// and fails on any function or method whose first parameter is named p
// with an int type.
func TestKernelsTakeNoPositionalWorkerCount(t *testing.T) {
	for _, file := range ctxKernelFiles {
		bad, err := positionalWorkerCounts(file, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bad {
			t.Errorf("%s: kernel takes a positional worker count (thread *exec.Ctx instead)", b)
		}
	}
}

// TestPositionalWorkerCountsFlagsViolations proves the check can fail: a
// function or method whose first parameter is p of an int type is
// reported, wherever its signature breaks lines, and p in a later position
// or of another type is not.
func TestPositionalWorkerCountsFlagsViolations(t *testing.T) {
	src := `package k
func f(p int, g *graph.Graph) {}
func (s *S) m(p int64) {}
func split(
	p int,
) {}
func later(g *graph.Graph, p int) {}
func other(p *Pool) {}
func ctx(ec *exec.Ctx) {}
`
	bad, err := positionalWorkerCounts("k.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bad, " "); got != "k.go:2 f k.go:3 m k.go:4 split" {
		t.Fatalf("flagged %q, want f, m and split", got)
	}
}

// positionalWorkerCounts parses file (from src when non-nil) and returns
// "file:line name" for every function declaration whose first parameter is
// named p and has a type whose source starts with "int".
func positionalWorkerCounts(file string, src any) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var bad []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || len(fn.Type.Params.List) == 0 {
			continue
		}
		first := fn.Type.Params.List[0]
		if len(first.Names) > 0 && first.Names[0].Name == "p" && strings.HasPrefix(types.ExprString(first.Type), "int") {
			bad = append(bad, fmt.Sprintf("%s:%d %s", file, fset.Position(fn.Pos()).Line, fn.Name.Name))
		}
	}
	return bad, nil
}

// hotLayers are the layers the obs recorder threads through. There the
// recorder travels as the concrete *obs.Recorder: a nil pointer costs a
// predictable branch when recording is off, while a value copies it and an
// interface adds dynamic dispatch to the disabled path.
var hotLayers = []string{
	"internal/core/core.go", "internal/matching/matching.go", "internal/contract/contract.go",
}

// TestHotLayersTakeRecorderByPointer parses the hot layers and fails on any
// use of obs.Recorder (or any obs name starting with Recorder) that is not
// directly under a pointer.
func TestHotLayersTakeRecorderByPointer(t *testing.T) {
	for _, file := range hotLayers {
		bad, err := recorderByValue(file, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bad {
			t.Errorf("%s: recorder passed by value or interface (want *obs.Recorder)", b)
		}
	}
}

// TestRecorderByValueFlagsViolations proves the check can fail: the
// recorder as a value parameter, a field, a slice element, a composite
// literal, a Recorder-prefixed name and an import alias are reported,
// while *obs.Recorder, a mention in a comment and other obs names are not.
func TestRecorderByValueFlagsViolations(t *testing.T) {
	src := `package k
import (
	"repro/internal/obs"
	o2 "repro/internal/obs"
)
type S struct {
	ok  *obs.Recorder
	bad obs.Recorder
}
func f(r *obs.Recorder, h *obs.Hot) {}
func g(r obs.Recorder) {}
func h(rs []obs.Recorder) {}
var x = &obs.Recorder{}
func a(r o2.Recorder, q *o2.Recorder) {}
func b(r obs.RecorderLike) {}
// obs.Recorder in a comment
`
	bad, err := recorderByValue("k.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bad, " "); got != "k.go:8 k.go:11 k.go:12 k.go:13 k.go:14 k.go:15" {
		t.Fatalf("flagged %q, want the field, value and slice parameters, the literal, the aliased value and RecorderLike", got)
	}
}

// recorderByValue parses file (from src when non-nil) and returns
// "file:line" for every selector naming obs.Recorder, or another obs name
// starting with Recorder, through the file's own name for the obs package,
// whose parent is not a pointer type.
func recorderByValue(file string, src any) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	local := map[string]bool{}
	for _, imp := range f.Imports {
		if strings.Trim(imp.Path.Value, `"`) != "repro/internal/obs" {
			continue
		}
		name := "obs"
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = true
	}
	isRecorder := func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !strings.HasPrefix(sel.Sel.Name, "Recorder") {
			return false
		}
		pkg, ok := sel.X.(*ast.Ident)
		return ok && local[pkg.Name]
	}
	pointed := map[ast.Node]bool{}
	var bad []string
	ast.Inspect(f, func(n ast.Node) bool {
		if star, ok := n.(*ast.StarExpr); ok && isRecorder(star.X) {
			pointed[star.X] = true
		}
		if isRecorder(n) && !pointed[n] {
			bad = append(bad, fmt.Sprintf("%s:%d", file, fset.Position(n.Pos()).Line))
		}
		return true
	})
	return bad, nil
}

// mentionsRecorder reports whether a type expression refers to obs.Recorder
// anywhere inside it.
func mentionsRecorder(typ ast.Expr) bool {
	found := false
	ast.Inspect(typ, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Recorder" {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "obs" {
				found = true
			}
		}
		return !found
	})
	return found
}

// mappingPrimitives are the calls that map or reinterpret raw memory, per
// import path. Outside internal/graphio, code opens graphs through
// graphio.OpenMapped, so mapping lifetime and the endianness and page
// checks stay in one package.
var mappingPrimitives = map[string][]string{
	"syscall": {"Mmap", "Madvise", "Munmap"},
	"unsafe":  {"Slice"},
}

// TestMappingPrimitivesOnlyInGraphio parses every Go file under cmd and
// internal except internal/graphio, plus the root package's files, test
// files included, and fails on any use of a mapping primitive.
func TestMappingPrimitivesOnlyInGraphio(t *testing.T) {
	for _, file := range repoGoFiles(t, filepath.Join("internal", "graphio"), true) {
		bad, err := importedSelectorUses(file, nil, mappingPrimitives)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bad {
			t.Errorf("%s: mmap/unsafe primitive outside internal/graphio (open graphs through graphio.OpenMapped)", b)
		}
	}
}

// TestMappingPrimitiveUsesFlagsViolations proves the check can fail: each
// primitive is reported, under an import alias too, while other members of
// the same packages and a mention in a comment are not.
func TestMappingPrimitiveUsesFlagsViolations(t *testing.T) {
	src := `package k
import (
	"syscall"
	u "unsafe"
)
func f(fd int, p *byte) {
	b, _ := syscall.Mmap(fd, 0, 8, 0, 0)
	_ = syscall.Madvise(b, 0)
	_ = syscall.Munmap(b)
	_ = u.Slice(p, 8)
	_ = u.Sizeof(p)
	_ = syscall.Getpid()
	// syscall.Mmap in a comment
}
`
	bad, err := importedSelectorUses("k.go", src, mappingPrimitives)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bad, " "); got != "k.go:7 Mmap k.go:8 Madvise k.go:9 Munmap k.go:10 Slice" {
		t.Fatalf("flagged %q, want Mmap, Madvise, Munmap and the aliased Slice", got)
	}
}

// importedSelectorUses parses file (from src when non-nil) and returns
// "file:line name" for every selector naming one of members' functions
// through the file's own name for its package, alias included. members maps
// an import path to the names it forbids.
func importedSelectorUses(file string, src any, members map[string][]string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	local := importNames(f)
	var bad []string
	ast.Inspect(f, func(n ast.Node) bool {
		if path, name := imported(local, n); slices.Contains(members[path], name) {
			bad = append(bad, fmt.Sprintf("%s:%d %s", file, fset.Position(n.Pos()).Line, name))
		}
		return true
	})
	return bad, nil
}

// importNames maps the file-local name of each of f's imports, alias
// included, to its import path.
func importNames(f *ast.File) map[string]string {
	local := map[string]string{}
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		local[name] = path
	}
	return local
}

// imported returns the import path and member name when n is a selector
// pkg.Name whose pkg is one of the file's imports (local from importNames),
// and empty strings otherwise.
func imported(local map[string]string, n ast.Node) (path, name string) {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || local[pkg.Name] == "" {
		return "", ""
	}
	return local[pkg.Name], sel.Sel.Name
}

// logSources are the layers whose stderr diagnostics must flow through
// log/slog (obs.NewLogger) so they honor -log.level/-log.format and mirror
// into the flight recorder: every command's main package and the harness.
var logSources = []string{"cmd/*/*.go", "internal/harness/*.go"}

// TestNoRawStderrInLoggedLayers parses the non-test files of logSources
// and fails on any fmt.Fprint* call that writes to os.Stderr.
func TestNoRawStderrInLoggedLayers(t *testing.T) {
	var files []string
	for _, pattern := range logSources {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) == 0 {
			t.Fatalf("%s: no Go files", pattern)
		}
		files = append(files, matches...)
	}
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		bad, err := rawStderrPrints(file, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bad {
			t.Errorf("%s: raw stderr diagnostic (route through log/slog via obs.NewLogger)", b)
		}
	}
}

// TestRawStderrPrintsFlagsViolations proves the check can fail: Fprint,
// Fprintf and Fprintln to os.Stderr are reported, under import aliases too,
// while a print to os.Stdout, a stderr write outside fmt and a mention in a
// comment are not.
func TestRawStderrPrintsFlagsViolations(t *testing.T) {
	src := `package k
import (
	"fmt"
	o "os"
)
func f(err error) {
	fmt.Fprintf(o.Stderr, "x %v\n", err)
	fmt.Fprintln(o.Stderr, err)
	fmt.Fprint(o.Stderr, err)
	fmt.Fprintln(o.Stdout, err)
	o.Stderr.WriteString("y")
	// fmt.Fprintf(os.Stderr, ...) in a comment
}
`
	bad, err := rawStderrPrints("k.go", src)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bad, " "); got != "k.go:7 Fprintf k.go:8 Fprintln k.go:9 Fprint" {
		t.Fatalf("flagged %q, want the three prints to the aliased os.Stderr", got)
	}
}

// rawStderrPrints parses file (from src when non-nil) and returns
// "file:line name" for every call of a fmt.Fprint* function whose writer
// argument is os.Stderr.
func rawStderrPrints(file string, src any) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	local := importNames(f)
	var bad []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fpath, fname := imported(local, call.Fun)
		wpath, wname := imported(local, call.Args[0])
		if fpath == "fmt" && strings.HasPrefix(fname, "Fprint") && wpath == "os" && wname == "Stderr" {
			bad = append(bad, fmt.Sprintf("%s:%d %s", file, fset.Position(call.Pos()).Line, fname))
		}
		return true
	})
	return bad, nil
}

// profileWrites are the runtime/pprof calls that start or write a profile.
// Outside internal/obs, profiles are captured through obs.Profiler so they
// are archived, rate-limited and cross-linked.
var profileWrites = map[string][]string{
	"runtime/pprof": {"StartCPUProfile", "StopCPUProfile", "WriteHeapProfile", "Lookup"},
}

// TestProfileWritesOnlyInObs parses the root package's non-test files and
// every non-test Go file under cmd and internal except internal/obs, and
// fails on any runtime/pprof profile write.
func TestProfileWritesOnlyInObs(t *testing.T) {
	for _, file := range repoGoFiles(t, filepath.Join("internal", "obs"), false) {
		bad, err := importedSelectorUses(file, nil, profileWrites)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bad {
			t.Errorf("%s: raw runtime/pprof profile write outside internal/obs (capture through obs.Profiler)", b)
		}
	}
}

// TestProfileWritesFlagsViolations proves the check can fail: each profile
// write is reported, under an import alias too, while other runtime/pprof
// members, net/http/pprof and a mention in a comment are not.
func TestProfileWritesFlagsViolations(t *testing.T) {
	src := `package k
import (
	"io"
	hp "net/http/pprof"
	rp "runtime/pprof"
)
func f(w io.Writer) {
	_ = rp.StartCPUProfile(w)
	rp.StopCPUProfile()
	_ = rp.WriteHeapProfile(w)
	_ = rp.Lookup("heap")
	_ = rp.Profiles()
	_ = hp.Handler("heap")
	// pprof.Lookup in a comment
}
`
	bad, err := importedSelectorUses("k.go", src, profileWrites)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bad, " "); got != "k.go:8 StartCPUProfile k.go:9 StopCPUProfile k.go:10 WriteHeapProfile k.go:11 Lookup" {
		t.Fatalf("flagged %q, want the four profile writes", got)
	}
}

// substrateDirs are the execution substrate packages. Every export there is
// API surface the kernels build on, so one that nothing outside its own file
// names is dead weight rather than a reusable primitive.
var substrateDirs = []string{filepath.Join("internal", "par"), filepath.Join("internal", "exec")}

// TestSubstrateExportsHaveCallers parses the non-test Go files of the root
// package, cmd (cmd/perf included), internal and examples, and fails on any
// exported top-level function or method declared in a non-test file of
// substrateDirs that no other non-test file names. The match is by
// identifier name only, so a dead method sharing its name with a live
// function or method elsewhere (Ctx.ZeroInt64 and Pool.ZeroInt64, say) is
// not caught.
func TestSubstrateExportsHaveCallers(t *testing.T) {
	files := repoGoFiles(t, "", false, "examples")
	var defs []string
	for _, f := range files {
		if slices.Contains(substrateDirs, filepath.Dir(f)) {
			defs = append(defs, f)
		}
	}
	if len(defs) == 0 {
		t.Fatal("no substrate sources found")
	}
	srcs := make(map[string]any, len(files))
	for _, f := range files {
		srcs[f] = nil
	}
	bad, err := uncalledExports(defs, srcs)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Errorf("%s: exported substrate function with no caller outside its file (delete it, or unexport it if its own file needs it)", b)
	}
}

// TestUncalledExportsFlagsViolations proves the check can fail: exports
// named only in their own file, only by a test, or only in a comment
// elsewhere, and a dead method, are reported; an export called from another
// file, a method value taken elsewhere, and unexported helpers are not.
func TestUncalledExportsFlagsViolations(t *testing.T) {
	srcs := map[string]any{
		"p/p.go": `package p
func Used() {}
func SelfOnly() { SelfOnly() }
func ByTest() {}
func Commented() {}
func helper() {}
type T struct{}
func (T) Method() {}
func (*T) Dead() {}
`,
		"q/q.go": `package q
func f(t p.T) {
	p.Used()
	g := t.Method
	_ = g
	// p.Commented() in a comment
}
`,
		"q/q_test.go": `package q
func TestX() { p.ByTest() }
`,
	}
	nonTest := map[string]any{"p/p.go": srcs["p/p.go"], "q/q.go": srcs["q/q.go"]}
	bad, err := uncalledExports([]string{"p/p.go"}, nonTest)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(bad, " "); got != "p/p.go:3 SelfOnly p/p.go:4 ByTest p/p.go:5 Commented p/p.go:9 Dead" {
		t.Fatalf("flagged %q, want SelfOnly, ByTest, Commented and Dead", got)
	}
}

// uncalledExports parses every file of srcs (from its value when non-nil)
// and returns "file:line name" for each exported top-level function or
// method declared in one of defs whose name no other file of srcs uses as an
// identifier. A declaration's own name is not a use.
func uncalledExports(defs []string, srcs map[string]any) ([]string, error) {
	fset := token.NewFileSet()
	users := map[string]map[string]bool{} // name -> files using it
	var decls []*ast.FuncDecl
	declFile := map[*ast.FuncDecl]string{}
	files := make([]string, 0, len(srcs))
	for f := range srcs {
		files = append(files, f)
	}
	slices.Sort(files)
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, srcs[file], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		own := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				own[fd.Name] = true
				if slices.Contains(defs, file) && fd.Name.IsExported() {
					decls = append(decls, fd)
					declFile[fd] = file
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				if users[id.Name] == nil {
					users[id.Name] = map[string]bool{}
				}
				users[id.Name][file] = true
			}
			return true
		})
	}
	var bad []string
	for _, fd := range decls {
		file := declFile[fd]
		called := false
		for user := range users[fd.Name.Name] {
			called = called || user != file
		}
		if !called {
			bad = append(bad, fmt.Sprintf("%s:%d %s", file, fset.Position(fd.Pos()).Line, fd.Name.Name))
		}
	}
	return bad, nil
}

// repoGoFiles lists the root package's Go files and every Go file under cmd,
// internal and the extra roots, skipping the directory skip, and test files
// unless tests is set.
func repoGoFiles(t *testing.T, skip string, tests bool, extra ...string) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range append([]string{"cmd", "internal"}, extra...) {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path == skip {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !tests {
		files = slices.DeleteFunc(files, func(f string) bool { return strings.HasSuffix(f, "_test.go") })
	}
	return files
}
