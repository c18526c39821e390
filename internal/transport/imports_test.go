package transport

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// sourceFiles lists the non-test Go files of dir.
func sourceFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading %s: %v", dir, err)
	}
	var out []string
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			out = append(out, filepath.Join(dir, name))
		}
	}
	return out
}

// importsOf returns the import paths of the Go file at path.
func importsOf(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
	if err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	var out []string
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatalf("%s: bad import path %s: %v", path, imp.Path.Value, err)
		}
		out = append(out, p)
	}
	return out
}

// TestProtocolLayersDoNotImportSimnet pins the point of the Transport
// interface: the DSM engine and the collector are written against this
// package only. A direct dependency on the simulated network creeping back
// into either would silently re-couple the protocol layers to one substrate.
func TestProtocolLayersDoNotImportSimnet(t *testing.T) {
	const forbidden = "bmx/internal/simnet"
	for _, pkg := range []string{"../dsm", "../core"} {
		for _, path := range sourceFiles(t, pkg) {
			for _, p := range importsOf(t, path) {
				if p == forbidden {
					t.Errorf("%s imports %q; protocol layers must depend only on bmx/internal/transport", path, forbidden)
				}
			}
		}
	}
}

// TestNodeLocalStateCarriesNoLock is the lock census: the collector, the
// protocol engine and the heap are node-local state, owned outright by the
// node lock in internal/cluster, so none of their files may import sync. A
// second lock under the node lock buys no concurrency — nothing reaches
// this state without the node lock — and costs every mutator operation.
// The cluster-wide directory (core/directory.go) and the segment allocator
// (mem/segment.go) are shared by every node and keep their own locks.
func TestNodeLocalStateCarriesNoLock(t *testing.T) {
	files := append(sourceFiles(t, "../core"), sourceFiles(t, "../dsm")...)
	files = append(files, filepath.Join("..", "mem", "heap.go"))
	for _, path := range files {
		if path == filepath.Join("..", "core", "directory.go") {
			continue
		}
		for _, p := range importsOf(t, path) {
			if p == "sync" {
				t.Errorf("%s imports sync; node-local state is guarded by the node lock alone", path)
			}
		}
	}
}
