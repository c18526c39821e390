// Package exp is the experiment harness of the reproduction. The paper has
// no quantitative evaluation section ("We are currently in the process of
// evaluating the performance of BMX", §10); what it publishes is four worked
// figures (reproduced by figures_test.go at the repository root) and the
// measurable performance claims of §§4-8, which this package checks against
// the baselines the paper names. Every experiment returns a Table whose
// shape check encodes what the paper predicts: who wins, by roughly what
// factor, and what must be exactly zero.
package exp

import (
	"fmt"
	"strings"
)

// Table is one experiment's result: rows to print plus a programmatic
// verdict on the paper's predicted shape.
type Table struct {
	ID     string // E1..E10, A1..A5
	Title  string
	Claim  string // the paper statement under test
	Header []string
	Rows   [][]string
	Notes  []string
	// Shape is a one-line statement of the expected shape; Pass reports
	// whether the measured data exhibits it.
	Shape string
	Pass  bool
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-form note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	verdict := "SHAPE HOLDS"
	if !t.Pass {
		verdict = "SHAPE VIOLATED"
	}
	fmt.Fprintf(&b, "shape: %s -> %s\n", t.Shape, verdict)
	return b.String()
}

// RunAll executes every experiment and ablation in order.
func RunAll() []Table {
	return []Table{
		RunE1(), RunE2(), RunE3(), RunE4(), RunE5(),
		RunE6(), RunE7(), RunE8(), RunE9(), RunE10(),
		RunA1(), RunA2(), RunA3(), RunA4(), RunA5(),
	}
}

// Render is what bmxbench prints and EXPERIMENTS.md records: every table,
// a blank line after each, then one verdict line over all of them.
func Render(tables []Table) string {
	var b strings.Builder
	failed := 0
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
		if !t.Pass {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(&b, "%d of %d experiment(s) violated the predicted shape\n", failed, len(tables))
	} else {
		fmt.Fprintf(&b, "all %d experiment(s) match the paper's predicted shapes\n", len(tables))
	}
	return b.String()
}
