// The export guard: every exported function or method under internal/ must
// be called from non-test code somewhere in the tree (cmd/, examples/ and
// bench/ included). An API that only tests call is test scaffolding shipped
// as library code; it belongs in a _test.go file or nowhere.
package heroserve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// implicitUses are method names the standard library calls without the
// name appearing at a call site: fmt's Stringer and error, encoding/json,
// io.Writer, and sort/container/heap's interfaces.
var implicitUses = []string{
	"String", "Error", "MarshalJSON", "UnmarshalJSON", "Write",
	"Len", "Less", "Swap", "Push", "Pop",
}

// exportAllowlist holds the exports kept for tests on purpose, keyed as
// unusedExports reports them, each with its reason.
var exportAllowlist = map[string]string{
	"netsim.Flow.Remaining":               "tests read a flow's unsent bytes to check lazy progress charging",
	"netsim.Network.CancelFlow":           "deleting it drops net_flows_cancelled_total from all 8 golden .prom files, a golden change of its own",
	"netsim.Network.LinkScale":            "tests read a link's fault-degraded capacity scale",
	"scheduler.Controller.StalledTicks":   "tests count the refresh rounds an agent stall skipped",
	"scheduler.Controller.Ticks":          "tests count the controller's refresh rounds",
	"scheduler.Table.Cost":                "tests read b_c to check the Eq. 16-17 cost updates",
	"scheduler.Table.Penalty":             "tests read f to check the Eq. 18 penalty refresh",
	"sim.Engine.After":                    "tests schedule relative to the clock; the simulator schedules absolute times",
	"sim.Engine.RunUntil":                 "tests stop the engine mid-run to inspect its state",
	"sim.Event.Daemon":                    "tests check that ScheduleDaemon marks its events",
	"switchsim.Switch.EntryElems":         "tests check the aggregation packet size the switch was built with",
	"switchsim.Switch.FreeSlots":          "tests check the sync slot pool's accounting",
	"telemetry/critpath.Analyzer.Process": "tests check the trace pid to process-name map",
	"topology.Graph.Incident":             "tests walk a node's links to congest or inspect them",
}

// unusedExports parses every non-test .go file under root and returns the
// exported functions and methods declared under root/internal whose name
// never appears in non-test code outside its own declaration. Methods are
// matched by name alone, so a method reached through an interface counts
// as used. Entries read "dir.Func" or "dir.Recv.Method", dir relative to
// root/internal.
func unusedExports(t *testing.T, root string) []string {
	t.Helper()
	type decl struct{ key, name string }
	var decls []decl
	used := map[string]bool{}
	for _, name := range implicitUses {
		used[name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(filepath.Join(root, "internal"), filepath.Dir(path))
		if err != nil {
			return err
		}
		internal := rel != ".." && !strings.HasPrefix(rel, "../")
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !internal || !fd.Name.IsExported() {
				continue
			}
			key := filepath.ToSlash(rel) + "."
			if fd.Recv != nil {
				key += recvName(fd.Recv.List[0].Type) + "."
			}
			decls = append(decls, decl{key + fd.Name.Name, fd.Name.Name})
		}
		defs := declIdents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !defs[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, d := range decls {
		if !used[d.name] {
			out = append(out, d.key)
		}
	}
	sort.Strings(out)
	return out
}

// declIdents returns the identifiers of f that name what they declare
// rather than refer to something: functions, types, values, struct fields,
// parameters, results and := definitions. Interface method names are not
// among them: a method an interface lists is reachable through it.
func declIdents(f *ast.File) map[*ast.Ident]bool {
	defs := map[*ast.Ident]bool{}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, id := range field.Names {
				defs[id] = true
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			defs[n.Name] = true
			addFields(n.Recv)
		case *ast.FuncType:
			addFields(n.TypeParams)
			addFields(n.Params)
			addFields(n.Results)
		case *ast.StructType:
			addFields(n.Fields)
		case *ast.TypeSpec:
			defs[n.Name] = true
			addFields(n.TypeParams)
		case *ast.ValueSpec:
			for _, id := range n.Names {
				defs[id] = true
			}
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, e := range n.Lhs {
					if id, ok := e.(*ast.Ident); ok {
						defs[id] = true
					}
				}
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if id, ok := e.(*ast.Ident); ok {
						defs[id] = true
					}
				}
			}
		case *ast.LabeledStmt:
			defs[n.Label] = true
		}
		return true
	})
	return defs
}

// recvName returns the receiver's type name, without pointer or type
// parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

func TestExportsHaveNonTestCallers(t *testing.T) {
	flagged := map[string]bool{}
	for _, key := range unusedExports(t, ".") {
		flagged[key] = true
		if _, ok := exportAllowlist[key]; !ok {
			t.Errorf("%s: exported but no non-test code calls it; delete it, move it into a _test.go file, or allowlist it with a reason", key)
		}
	}
	for key := range exportAllowlist {
		if !flagged[key] {
			t.Errorf("%s: allowlisted but no longer flagged; drop the entry", key)
		}
	}
}

// TestExportScannerOnFixture runs the scanner on a small tree: one export
// only a test calls, one method reached only through an interface, one that
// only fmt calls, and one function called only from a bench/ file.
func TestExportScannerOnFixture(t *testing.T) {
	got := unusedExports(t, filepath.Join("testdata", "exports"))
	want := []string{"lib.Unused"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unusedExports = %q, want %q", got, want)
	}
}
