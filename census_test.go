package bmx_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// censusAllowed lists the exported functions and methods under internal/
// that no non-test code references, each with the reason it stays. A key
// is "<package dir>.<Name>" for a function and "<package dir>.<Recv>.<Name>"
// for a method, the package dir relative to the module root.
var censusAllowed = map[string]string{
	// Test oracles: the reference checks the paper-claim and format tests
	// assert with.
	"internal/obs.CollectorAcquires":       "§5 probe: tokens the collector acquired, which the claim tests require to be none",
	"internal/obs.CollectorInvalidations":  "§5 probe: invalidations on the collector's behalf, none for the BGC",
	"internal/obs.CriticalGCMessages":      "§4.4 probe: GC messages on the mutator's critical path",
	"internal/obs.NonScion":                "filters the §3.2 scion-message exception out of CriticalGCMessages",
	"internal/obs.ParsePromText":           "strict /metrics format check the introspection tests run",
	"internal/transport.PayloadTypes":      "lets the wire tests round-trip and fuzz every registered payload",
	"internal/obs.Observer.SetStrict":      "arms the span-stack asserts in tests; BMX_OBS_STRICT does it in a run",
	"internal/obs.Observer.SetFatalSink":   "captures the fatal flight-recorder dump in tests",
	"internal/obs.Observer.ResetFatalOnce": "re-arms the once-per-process fatal dump between tests",

	// Public bmx façade (bmx.go aliases the types): API the tests exercise.
	"internal/cluster.Node.UnmapBunch":       "bmx.Node.UnmapBunch, the inverse of MapBunch",
	"internal/cluster.Cluster.RunConcurrent": "bmx.Cluster.RunConcurrent, parallel delivery beside the deterministic Run",
	"internal/cluster.Tx.Pinned":             "bmx.Tx.Pinned, how many objects a transaction roots",

	// Standard-library interfaces, called by the standard library.
	"internal/transport.wireError.Unwrap": "errors.Is and errors.As match a decoded wire error through it",
	"internal/obs.Event.MarshalJSON":      "encoding/json writes an event record's payload through it (obs.WriteStream)",
	"internal/obs.Event.UnmarshalJSON":    "encoding/json reads an event record's payload through it (obs.ReadStream)",
}

// goFiles returns the non-test Go files under root, skipping hidden
// directories and testdata.
func goFiles(t *testing.T, root string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			out = append(out, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEveryExportedFuncHasACaller is the API census: every exported
// function or method declared in a non-test file under internal/ is
// referenced by name from some non-test Go file of the program (internal/,
// cmd/, examples/, bmx.go) or of the benchmark (bench/). An exported name
// only tests call is API the program carries for nothing, and a second
// path beside the one that runs. A function counts as referenced when its
// package mentions it bare or another file names it through an import of
// its package; a method, when any selector names it, which also covers
// calls through an interface. Anything else needs an entry, with its
// reason, in censusAllowed.
func TestEveryExportedFuncHasACaller(t *testing.T) {
	type file struct {
		pkg string // package dir relative to the module root, slash-separated
		ast *ast.File
	}
	var files []file
	var scan []string
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		scan = append(scan, goFiles(t, root)...)
	}
	scan = append(scan, "bmx.go")
	fset := token.NewFileSet()
	for _, p := range scan {
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", p, err)
		}
		files = append(files, file{filepath.ToSlash(filepath.Dir(p)), f})
	}

	funcRefs := map[string]bool{}   // "<pkg dir>.<Name>"
	methodRefs := map[string]bool{} // "<Name>"
	for _, f := range files {
		imports := map[string]string{} // local name -> package dir
		for _, imp := range f.ast.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !strings.HasPrefix(p, "bmx/") {
				continue
			}
			dir := strings.TrimPrefix(p, "bmx/")
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = dir
		}
		decls := map[*ast.Ident]bool{}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				decls[fd.Name] = true
			}
		}
		ast.Inspect(f.ast, func(nd ast.Node) bool {
			switch x := nd.(type) {
			case *ast.SelectorExpr:
				methodRefs[x.Sel.Name] = true
				if id, ok := x.X.(*ast.Ident); ok {
					if dir, ok := imports[id.Name]; ok {
						funcRefs[dir+"."+x.Sel.Name] = true
					}
				}
			case *ast.Ident:
				if !decls[x] {
					funcRefs[f.pkg+"."+x.Name] = true
				}
			}
			return true
		})
	}

	var unused []string
	for _, f := range files {
		if !strings.HasPrefix(f.pkg, "internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				key := f.pkg + "." + fd.Name.Name
				if !funcRefs[key] {
					unused = append(unused, key)
				}
				continue
			}
			if !methodRefs[fd.Name.Name] {
				unused = append(unused, f.pkg+"."+recvName(fd.Recv)+"."+fd.Name.Name)
			}
		}
	}
	sort.Strings(unused)
	seen := map[string]bool{}
	for _, key := range unused {
		seen[key] = true
		if _, ok := censusAllowed[key]; !ok {
			t.Errorf("%s is exported but nothing outside tests references it: delete it, give it a caller, or allow it with a reason", key)
		}
	}
	for key := range censusAllowed {
		if !seen[key] {
			t.Errorf("censusAllowed lists %s, which is gone or now has a caller: drop the entry", key)
		}
	}
}

// recvName returns the receiver's type name, without pointer or type
// parameters.
func recvName(fl *ast.FieldList) string {
	x := fl.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	switch y := x.(type) {
	case *ast.IndexExpr:
		x = y.X
	case *ast.IndexListExpr:
		x = y.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
