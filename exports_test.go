// The export guard: every exported function or method under internal/ must
// be used by non-test code somewhere in the tree (cmd/, examples/ and the
// bench/ module included). An API that only tests call is test scaffolding
// shipped as library code; it belongs in a _test.go file or nowhere.
package heroserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// implicitUses are the standard library interfaces whose methods the
// standard library calls without a call site naming them, keyed by method
// name: fmt's Stringer and error, encoding/json, io.Writer, and sort's and
// container/heap's interfaces. A method with one of these names counts as
// used when its type implements the interface.
var implicitUses = map[string]struct{ pkg, iface string }{
	"String":        {"fmt", "Stringer"},
	"Error":         {"", "error"},
	"MarshalJSON":   {"encoding/json", "Marshaler"},
	"UnmarshalJSON": {"encoding/json", "Unmarshaler"},
	"Write":         {"io", "Writer"},
	"Len":           {"sort", "Interface"},
	"Less":          {"sort", "Interface"},
	"Swap":          {"sort", "Interface"},
	"Push":          {"container/heap", "Interface"},
	"Pop":           {"container/heap", "Interface"},
}

// exportAllowlist holds the exports kept for tests on purpose, keyed as
// unusedExports reports them, each with its reason.
var exportAllowlist = map[string]string{
	"netsim.Flow.Rate":                      "tests read a flow's max-min rate, and check that the read settles a held network",
	"netsim.Flow.Remaining":                 "tests read a flow's unsent bytes to check lazy progress charging",
	"netsim.Network.CancelFlow":             "deleting it drops net_flows_cancelled_total from all 8 golden .prom files, a golden change of its own",
	"netsim.Network.LinkScale":              "tests read a link's fault-degraded capacity scale",
	"scheduler.Controller.StalledTicks":     "tests count the refresh rounds an agent stall skipped",
	"scheduler.Controller.Ticks":            "tests count the controller's refresh rounds",
	"scheduler.Table.Cost":                  "tests read b_c to check the Eq. 16-17 cost updates",
	"scheduler.Table.Penalty":               "tests read f to check the Eq. 18 penalty refresh",
	"sim.Engine.After":                      "tests schedule relative to the clock; the simulator schedules absolute times",
	"sim.Engine.Pending":                    "sim's and netsim's tests count the live events, netsim's to check it keeps at most its one timer",
	"sim.Engine.RunUntil":                   "tests stop the engine mid-run to inspect its state",
	"sim.Event.At":                          "netsim's tests read the armed timer's fire time",
	"sim.Event.Cancelled":                   "sim's and netsim's tests check a cancelled event stays cancelled",
	"sim.Event.Daemon":                      "tests check that ScheduleDaemon marks its events",
	"switchsim.Switch.EntryElems":           "tests check the aggregation packet size the switch was built with",
	"switchsim.Switch.FreeSlots":            "tests check the sync slot pool's accounting",
	"telemetry.Counter.Value":               "netsim's tests compare per-link byte counters bit for bit",
	"telemetry/critpath.Analyzer.Process":   "tests check the trace pid to process-name map",
	"telemetry/decisions.Ledger.Collective": "core's and decisions' tests read back the collective records the online policy logged",
	"telemetry/decisions.Ledger.Scale":      "serving's and decisions' tests read back the scale records the autoscaler logged",
	"topology.Graph.Incident":               "tests walk a node's links to congest or inspect them",
}

// listedPackage is the part of `go list -json` the guard reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList lists the packages of the module in dir and all their
// dependencies, deepest first, with the export data of each.
func goList(t *testing.T, dir string, extra ...string) []listedPackage {
	t.Helper()
	args := append([]string{"list", "-tags", buildTags, "-deps", "-export", "-json", "./..."}, extra...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
}

// moduleDirs returns root and every directory under it that holds a
// go.mod, skipping testdata and hidden directories.
func moduleDirs(t *testing.T, root string) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() && path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if name == "go.mod" {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// unusedExports type-checks the non-test code of every module under root
// (root's own and nested ones such as bench/) and returns the exported
// functions and methods declared under root/internal that none of it uses.
// A function or method is used when non-test code refers to it. A method
// is also used when its type implements an interface whose method of that
// name non-test code calls, or implements the standard library interface
// implicitUses names for it. Entries read "dir.Func" or "dir.Recv.Method",
// dir relative to root/internal.
func unusedExports(t *testing.T, root string) []string {
	t.Helper()
	root, err := filepath.Abs(root)
	if err != nil {
		t.Fatal(err)
	}
	stdIfaces := []string{"fmt", "encoding/json", "io", "sort", "container/heap"}
	var pkgs []listedPackage
	for _, dir := range moduleDirs(t, root) {
		pkgs = append(pkgs, goList(t, dir, stdIfaces...)...)
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range pkgs {
		exports[p.ImportPath] = p.Export
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})

	type decl struct {
		key string
		fn  *types.Func
	}
	var decls []decl
	used := map[*types.Func]bool{}
	ifaceCalls := map[*types.Func]bool{}
	internal := filepath.Join(root, "internal")
	for _, p := range pkgs {
		if p.Standard || checked[p.ImportPath] != nil {
			continue
		}
		// Listing the directory records it for the test cache, so a new
		// file in a package invalidates a cached pass.
		if _, err := os.ReadDir(p.Dir); err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for _, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			used[fn] = true
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceCalls[fn] = true
			}
		}
		rel, err := filepath.Rel(internal, p.Dir)
		if err != nil || rel == ".." || strings.HasPrefix(rel, "../") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				key := filepath.ToSlash(rel) + "."
				if fd.Recv != nil {
					key += recvName(fd.Recv.List[0].Type) + "."
				}
				decls = append(decls, decl{key + fd.Name.Name, info.Defs[fd.Name].(*types.Func)})
			}
		}
	}

	implicit := map[string]*types.Interface{}
	for name, u := range implicitUses {
		scope := types.Universe
		if u.pkg != "" {
			p, err := imp.Import(u.pkg)
			if err != nil {
				t.Fatal(err)
			}
			scope = p.Scope()
		}
		implicit[name] = scope.Lookup(u.iface).Type().Underlying().(*types.Interface)
	}
	// reached reports whether method m's type, or a pointer to it,
	// implements an interface through which m is called: the standard
	// library one implicitUses names for m, or one whose method of m's name
	// non-test code calls.
	reached := func(m *types.Func) bool {
		recv := m.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		typ := recv.Type()
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		implements := func(iface *types.Interface) bool {
			return types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface)
		}
		if iface := implicit[m.Name()]; iface != nil && implements(iface) {
			return true
		}
		for call := range ifaceCalls {
			if call.Name() == m.Name() && implements(call.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)) {
				return true
			}
		}
		return false
	}

	var out []string
	for _, d := range decls {
		if !used[d.fn] && !reached(d.fn) {
			out = append(out, d.key)
		}
	}
	sort.Strings(out)
	return out
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

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
			t.Errorf("%s: exported but no non-test code uses it; delete it, move it into a _test.go file, or allowlist it with a reason", key)
		}
	}
	for key := range exportAllowlist {
		if !flagged[key] {
			t.Errorf("%s: allowlisted but no longer flagged; drop the entry", key)
		}
	}
}

// TestExportScannerOnFixture runs the scanner on a small module: one export
// only a test calls, one method reached only through an interface, one that
// only fmt calls, one function called only from a bench/ file, a test-only
// method named like a method cmd/app calls on another type, and a test-only
// Len on a type that is no sort.Interface.
func TestExportScannerOnFixture(t *testing.T) {
	got := unusedExports(t, filepath.Join("testdata", "exports"))
	want := []string{"lib.Bag.Len", "lib.Tally.Scale", "lib.Unused"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("unusedExports = %q, want %q", got, want)
	}
}
