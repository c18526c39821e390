// Command bmxbench regenerates the reproduction's experiment tables: the
// measurable claims of the paper's §§4-8, each checked against the baselines
// the paper names, plus the design ablations. Its output is EXPERIMENTS.md's
// fenced block byte for byte (internal/exp's TestRunAll pins that).
//
// Exit status is non-zero if any experiment's measured data violates the
// shape the paper predicts.
package main

import (
	"fmt"
	"os"

	"bmx/internal/exp"
)

func main() {
	tables := exp.RunAll()
	fmt.Print(exp.Render(tables))
	for _, t := range tables {
		if !t.Pass {
			os.Exit(1)
		}
	}
}
