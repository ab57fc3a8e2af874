package community

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
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
