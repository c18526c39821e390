package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// flagCensusAllowed lists the bmxd flags that neither the Makefile, CI nor
// a cmd/bmxd test sets, each with the reason it stays.
var flagCensusAllowed = map[string]string{
	"protocol": "the verify recipe runs -protocol strict, the other consistency protocol",
	"grain":    "the verify recipe runs -grain segment, segment-grain tokens",
}

// bmxdFlags returns the name of every flag main.go defines through the
// flag package (flag.Int("nodes", ...) and the like).
func bmxdFlags(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		return true
	})
	return names
}

// runsBmxd matches a shell line that runs bmxd: `go run ./cmd/bmxd`, or a
// built ./bmxd binary.
var runsBmxd = regexp.MustCompile(`(run \S*cmd/bmxd|\./bmxd(\.bench)?)(\s|$)`)

// makeVar matches a Makefile variable definition (the envelopes' _ARGS).
var makeVar = regexp.MustCompile(`^\w+\s*:?=`)

// shellFlagLines returns the lines of a Makefile or workflow file that
// give bmxd its arguments: the lines that run it and the Makefile variables
// that hold its argument lists, with backslash continuations joined.
func shellFlagLines(t *testing.T, path string) []string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(strings.ReplaceAll(string(b), "\\\n", " "), "\n") {
		if makeVar.MatchString(line) || runsBmxd.MatchString(line) && !strings.Contains(line, " build ") {
			out = append(out, line)
		}
	}
	return out
}

// testStrings returns every string literal in this package's test files,
// bar the census itself.
func testStrings(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range files {
		if p == "flag_census_test.go" {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					out = append(out, s)
				}
			}
			return true
		})
	}
	return out
}

// TestEveryFlagIsExercised is the flag census: every flag bmxd defines is
// set somewhere that runs — a Makefile target, a CI step or a cmd/bmxd test
// — or has an entry, with its reason, in flagCensusAllowed. A flag nothing
// sets only ever takes its default: it is a constant dressed as an option.
func TestEveryFlagIsExercised(t *testing.T) {
	set := map[string]bool{}
	shell := append(shellFlagLines(t, "../../Makefile"), shellFlagLines(t, "../../.github/workflows/ci.yml")...)
	for _, line := range shell {
		for _, word := range strings.Fields(line) {
			if name, ok := strings.CutPrefix(word, "-"); ok {
				set[name] = true
			}
		}
	}
	for _, s := range testStrings(t) {
		if name, ok := strings.CutPrefix(s, "-"); ok {
			set[name] = true
		}
	}

	names := bmxdFlags(t)
	if len(names) == 0 {
		t.Fatal("found no flag definitions in main.go")
	}
	defined := map[string]bool{}
	for _, name := range names {
		defined[name] = true
		_, allowed := flagCensusAllowed[name]
		switch {
		case set[name] && allowed:
			t.Errorf("-%s is set by the Makefile, CI or a test; drop its flagCensusAllowed entry", name)
		case !set[name] && !allowed:
			t.Errorf("-%s is set by no Makefile target, CI step or cmd/bmxd test: make it a constant, or add a flagCensusAllowed entry saying why it stays", name)
		}
	}
	for name := range flagCensusAllowed {
		if !defined[name] {
			t.Errorf("flagCensusAllowed names -%s, which main.go does not define", name)
		}
	}
}
