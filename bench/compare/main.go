// Command compare sets two sets of benchmark results side by side.
//
//	go run ./compare BASE.json NEW.json
//	go run ./compare base1.json,base2.json,base3.json new1.json,new2.json,new3.json
//	go run ./compare -median run1.json run2.json run3.json > baseline/HEAD.json
//
// It prints one row per (end-to-end metric × workload): both medians with
// their quartiles, the ratio new/base, the bound the base file carries (the
// one BENCHMARK.json and the harness catalogue fix), and a verdict:
//
//	ok          the new median is not worse than the base's by more than the bound
//	regressed   it is
//	unresolved  a side's quartiles are further apart than the bound, so that
//	            neither of the above can be told (setup_s excepted, as in the
//	            driver's own rule: its medians must agree, its spread may not)
//	info        the metric is held to no bound on this workload
//
// and exits non-zero on any "regressed", or when the two sides do not hold
// the same metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"bmx/bench/internal/harness"
)

func main() {
	median := flag.Bool("median", false, "write the median set of the given files to standard output and compare nothing")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: compare BASE.json[,BASE2.json...] NEW.json[,NEW2.json...]\n       compare -median RUN.json...")
		flag.PrintDefaults()
	}
	flag.Parse()
	if err := run(*median, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

func run(median bool, args []string) error {
	if median {
		if len(args) == 0 {
			return fmt.Errorf("-median needs at least one results file")
		}
		set, err := load(args)
		if err != nil {
			return err
		}
		return harness.WriteJSON("/dev/stdout", set.medians())
	}
	if len(args) != 2 {
		flag.Usage()
		return fmt.Errorf("need a base side and a new side")
	}
	base, err := load(strings.Split(args[0], ","))
	if err != nil {
		return err
	}
	fresh, err := load(strings.Split(args[1], ","))
	if err != nil {
		return err
	}
	return compare(base, fresh)
}

// side is one side of a comparison: every value each (workload, metric) took
// over the side's files.
type side struct {
	files []harness.Results
}

func load(paths []string) (*side, error) {
	s := &side{}
	for _, p := range paths {
		var r harness.Results
		if err := harness.ReadJSON(p, &r); err != nil {
			return nil, err
		}
		s.files = append(s.files, r)
	}
	return s, nil
}

// sample is what a side knows of one metric: its median and quartiles. A
// side of one file of medians hands on the quartiles recorded in it; a side
// of one plain run has no spread.
type sample struct {
	harness.ResultMetric
	med, q1, q3    float64
	hasSpread, has bool
}

func (s *side) sample(pick func(harness.Results) (harness.ResultMetric, bool)) sample {
	var out sample
	var xs []float64
	for _, f := range s.files {
		m, ok := pick(f)
		if !ok {
			continue
		}
		if !out.has {
			out.ResultMetric, out.has = m, true
		}
		xs = append(xs, m.Value.Value)
		if len(s.files) == 1 && m.Q1 != nil && m.Q3 != nil {
			out.med, out.q1, out.q3, out.hasSpread = m.Value.Value, *m.Q1, *m.Q3, true
			return out
		}
	}
	out.med = harness.Median(slices.Clone(xs))
	out.q1, out.q3 = out.med, out.med
	if len(xs) >= 2 {
		out.q1, out.q3 = quartiles(xs)
		out.hasSpread = true
	}
	return out
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// benchmark's contract measures spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		switch {
		case j < 1:
			j = 1
		case j > len(s)-1:
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// spread is the distance between the quartiles as a share of the median.
func (s sample) spread() float64 {
	if !s.hasSpread || s.med == 0 {
		return 0
	}
	return (s.q3 - s.q1) / s.med
}

func compare(base, fresh *side) error {
	var workloads []string
	for _, w := range harness.Workloads {
		workloads = append(workloads, w.Name)
	}
	fmt.Printf("%-12s %-24s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "base", "[q1 .. q3]", "new", "[q1 .. q3]", "new/base", "bound", "verdict")
	var regressed, unresolved, absent int
	for _, w := range workloads {
		for _, m := range harness.Catalogue {
			if !m.EndToEnd() {
				continue
			}
			pick := func(r harness.Results) (harness.ResultMetric, bool) {
				v, ok := r.Workloads[w].EndToEnd[m.Name]
				return v, ok
			}
			b, f := base.sample(pick), fresh.sample(pick)
			if !b.has && !f.has {
				continue // the metric does not exist on this workload
			}
			if b.has != f.has {
				absent++
				fmt.Printf("%-12s %-24s present on one side only\n", w, m.Name)
				continue
			}
			worse := f.med/b.med - 1
			if b.Better == "higher" {
				worse = 1 - f.med/b.med
			}
			verdict := "ok"
			switch {
			case b.Bound == 0:
				verdict = "info"
			case m.Name != "setup_s" && (b.spread() > b.Bound || f.spread() > b.Bound):
				verdict = "unresolved"
				unresolved++
			case worse > b.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Printf("%-12s %-24s %12.4f %25s %12.4f %25s %8.4f %5.0f%%  %s\n",
				w, m.Name, b.med, b.quartileString(), f.med, f.quartileString(), f.med/b.med, 100*b.Bound, verdict)
		}
	}
	fmt.Printf("%d regressed, %d unresolved (base: %d runs, new: %d runs; ratio is new/base)\n",
		regressed, unresolved, base.runs(), fresh.runs())
	if absent > 0 {
		return fmt.Errorf("%d metrics are present on one side only", absent)
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	return nil
}

func (s sample) quartileString() string {
	if !s.hasSpread {
		return "[one run]"
	}
	return fmt.Sprintf("[%.4g .. %.4g]", s.q1, s.q3)
}

func (s *side) runs() int {
	if len(s.files) == 1 && s.files[0].Runs > 0 {
		return s.files[0].Runs
	}
	return len(s.files)
}

// medians folds the side's files into one: every metric's median, with the
// quartiles of the end-to-end ones, under the first file's header.
func (s *side) medians() harness.Results {
	first := s.files[0]
	out := harness.Results{Machine: first.Machine, Seed: first.Seed, Seconds: first.Seconds,
		Runs: len(s.files), Workloads: map[string]harness.WorkloadResult{}}
	fold := func(names map[string]harness.ResultMetric, pick func(harness.Results, string) (harness.ResultMetric, bool), spread bool) map[string]harness.ResultMetric {
		if len(names) == 0 {
			return nil
		}
		folded := map[string]harness.ResultMetric{}
		for name := range names {
			sm := s.sample(func(r harness.Results) (harness.ResultMetric, bool) { return pick(r, name) })
			m := sm.ResultMetric
			m.Value.Value = sm.med
			if spread && sm.hasSpread {
				m.Q1, m.Q3 = &sm.q1, &sm.q3
			}
			folded[name] = m
		}
		return folded
	}
	for w, wr := range first.Workloads {
		folded := harness.WorkloadResult{Correct: true}
		for _, f := range s.files {
			folded.Correct = folded.Correct && f.Workloads[w].Correct
			folded.Attempted += f.Workloads[w].Attempted
			folded.Failed += f.Workloads[w].Failed
		}
		folded.EndToEnd = fold(wr.EndToEnd, func(r harness.Results, n string) (harness.ResultMetric, bool) {
			v, ok := r.Workloads[w].EndToEnd[n]
			return v, ok
		}, true)
		for name, m := range folded.EndToEnd {
			if c, ok := harness.Find(name); ok {
				m.Bound = c.BoundOn(w) // the bounds in force now, not when the runs were made
				folded.EndToEnd[name] = m
			}
		}
		folded.PerLayer = fold(wr.PerLayer, func(r harness.Results, n string) (harness.ResultMetric, bool) {
			v, ok := r.Workloads[w].PerLayer[n]
			return v, ok
		}, false)
		out.Workloads[w] = folded
	}
	out.Probes = fold(first.Probes, func(r harness.Results, n string) (harness.ResultMetric, bool) {
		v, ok := r.Probes[n]
		return v, ok
	}, false)
	return out
}
