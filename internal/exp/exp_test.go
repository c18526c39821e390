package exp

import (
	"os"
	"strings"
	"sync"
	"testing"
)

// tables is the one run of every experiment that all tests here read.
var tables = sync.OnceValue(RunAll)

// TestRunAll pins EXPERIMENTS.md to the code: the fenced block under "Claim
// experiments" must be exactly what bmxbench prints. The experiments are
// deterministic (seeded, simulated clock), so this also proves that every
// table is identical on every run.
func TestRunAll(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, _ := strings.Cut(string(doc), "## Claim experiments")
	_, block, _ = strings.Cut(block, "```\n")
	want, _, ok := strings.Cut(block, "```\n")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no fenced block under \"## Claim experiments\"")
	}
	got := Render(tables())
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			t.Fatalf("EXPERIMENTS.md's measured block is stale at its line %d:\n doc: %q\n run: %q\nregenerate it with `go run ./cmd/bmxbench`", i+1, w[i], g[i])
		}
	}
	t.Fatalf("EXPERIMENTS.md's measured block has %d lines, bmxbench prints %d; regenerate it with `go run ./cmd/bmxbench`", len(w), len(g))
}

// check asserts that experiment id ran, produced rows, and shows the shape
// the paper predicts.
func check(t *testing.T, id string) {
	t.Helper()
	for _, tab := range tables() {
		if tab.ID != id {
			continue
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		if !tab.Pass {
			t.Fatalf("%s shape violated:\n%s", id, tab.String())
		}
		return
	}
	t.Fatalf("RunAll has no table %s", id)
}

func TestE1TokenInterference(t *testing.T)       { check(t, "E1") }
func TestE2ReplicationIndependence(t *testing.T) { check(t, "E2") }
func TestE3PiggybackMessages(t *testing.T)       { check(t, "E3") }
func TestE4FlipPauses(t *testing.T)              { check(t, "E4") }
func TestE5LossTolerance(t *testing.T)           { check(t, "E5") }
func TestE6AcyclicLatency(t *testing.T)          { check(t, "E6") }
func TestE7StrongVsWeakScaling(t *testing.T)     { check(t, "E7") }
func TestE8WriteBarrier(t *testing.T)            { check(t, "E8") }
func TestE9Recovery(t *testing.T)                { check(t, "E9") }
func TestE10Incrementality(t *testing.T)         { check(t, "E10") }
func TestA1IntraSSPAblation(t *testing.T)        { check(t, "A1") }
func TestA2LazyUpdateAblation(t *testing.T)      { check(t, "A2") }
func TestA3ProtocolGenerality(t *testing.T)      { check(t, "A3") }
func TestA4ConsistencyGranularity(t *testing.T)  { check(t, "A4") }
func TestA5GroupingHeuristic(t *testing.T)       { check(t, "A5") }

// TestTableRendering covers the renderer on a hand-built table, including
// the "SHAPE VIOLATED" verdict that no real experiment produces.
func TestTableRendering(t *testing.T) {
	tab := Table{ID: "X", Title: "demo", Header: []string{"a", "bb"}, Shape: "none", Pass: true}
	tab.AddRow(1, "x")
	tab.AddRow(2.5, "longer")
	tab.Note("hello %d", 7)
	s := tab.String()
	for _, want := range []string{"X — demo", "a", "bb", "2.50", "longer", "note: hello 7", "SHAPE HOLDS"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
	tab.Pass = false
	if !strings.Contains(tab.String(), "SHAPE VIOLATED") {
		t.Fatal("fail verdict missing")
	}
	if got := Render([]Table{tab}); !strings.HasSuffix(got, "\n1 of 1 experiment(s) violated the predicted shape\n") {
		t.Fatalf("Render's verdict line missing:\n%s", got)
	}
}
