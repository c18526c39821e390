// Command wall is the repository's wall-clock benchmark: four workloads,
// end-to-end and per-layer metrics, one traced run. See ../README.md.
//
// A (workload, trace mode) pair runs in this process and ends with one JSON
// line for the driver named in BENCHMARK.json. Anything broader (no
// -workload, or no -trace) fans out into one child process per pair, so
// peak RSS and Go-heap state never leak from one workload into the next, and
// gathers the children's results into <out>/results.json.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"bmx/bench/internal/harness"
	"bmx/bench/internal/probe"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int // 0 timed, 1 traced, -1 both
	probes   int
	out      string
}

func main() {
	var o options
	var duration time.Duration
	flag.StringVar(&o.workload, "workload", "", "workload to run: local_hot, shared_sim, shared_tcp or gc_persist (default: all four)")
	flag.Int64Var(&o.seed, "seed", 12, "seed of the op stream")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the timed loop, in seconds")
	flag.DurationVar(&duration, "duration", 0, "length of the timed loop as a Go duration; overrides -seconds")
	flag.IntVar(&o.trace, "trace", -1, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics (default: both)")
	flag.IntVar(&o.probes, "probes", 1, "1: a traced run also runs the per-layer probes; 0: it does not")
	flag.StringVar(&o.out, "out", "out", "directory for results.json, trace files and temporary stores")
	flag.Parse()
	if duration > 0 {
		o.seconds = duration.Seconds()
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "wall:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.trace < -1 || o.trace > 1 || o.probes < 0 || o.probes > 1 || o.seconds <= 0 {
		return errors.New("-trace and -probes take 0 or 1, -seconds a positive number")
	}
	if o.workload != "" {
		if _, err := harness.Lookup(o.workload); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	if o.workload != "" && o.trace >= 0 {
		return runOne(o)
	}
	return runMany(o)
}

// runOne measures one (workload, trace mode) pair in this process.
func runOne(o options) error {
	// One client issues one op at a time, so one P does all the work there
	// is. With two, every hand-off between the client and a TCP peer's reader
	// goroutine wakes the sandbox's other vCPU, which costs more than the
	// loopback round trip itself (shared_tcp runs twice as fast on one P)
	// and swings with whatever else the host is doing.
	runtime.GOMAXPROCS(1)
	w, _ := harness.Lookup(o.workload)
	tmp, err := os.MkdirTemp(o.out, "tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	// A signal must not leave store directories behind either.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(tmp)
		os.Exit(1)
	}()

	var res *harness.Outcome
	if o.trace == 0 {
		res, err = harness.RunTimed(w, o.seed, time.Duration(o.seconds*float64(time.Second)), tmp)
	} else {
		res, err = harness.RunTraced(w, o.seed, tmp, o.out)
		if err == nil && o.probes == 1 {
			err = probe.All(res.Metrics, tmp)
		}
		if err == nil {
			err = harness.CheckPerLayer(w.Name, res.Metrics, o.probes == 1)
		}
	}
	if err != nil {
		return err
	}
	printMetrics(res)
	if err := harness.WriteJSON(outcomePath(o.out, w.Name, o.trace), res); err != nil {
		return err
	}
	line, err := json.Marshal(driverLine(res, o.trace))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: outputs are not correct: %v", w.Name, res.Errors)
	}
	return nil
}

func outcomePath(out, workload string, trace int) string {
	return filepath.Join(out, fmt.Sprintf("%s.%s.json", workload, [2]string{"timed", "traced"}[trace]))
}

func printMetrics(res *harness.Outcome) {
	fmt.Printf("# %s seed %d: %d attempted, %d failed\n", res.Workload, res.Seed, res.Attempted, res.Failed)
	for _, m := range harness.Catalogue {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Printf("%-36s %16.4f %-6s n=%d\n", m.Name, v.Value, v.Unit, v.N)
		}
	}
	for _, e := range res.Errors {
		fmt.Println("# incorrect:", e)
	}
}

// driverLine is the last line of standard output: with -trace 0 every
// end_to_end metric of BENCHMARK.json, with -trace 1 every per_layer metric.
// The per_layer list holds the workload-specific end-to-end metrics too; a
// metric the workload has no event for reads 0 there.
func driverLine(res *harness.Outcome, trace int) map[string]any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range harness.Catalogue {
		if m.Gated == (trace == 0) {
			metrics[m.Name] = value{res.Metrics[m.Name].Value, m.Unit}
		}
	}
	return map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics}
}

// runMany runs every selected pair in a child process of its own and
// gathers what they wrote.
func runMany(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range harness.Workloads {
			names = append(names, w.Name)
		}
	}
	modes := []int{o.trace}
	if o.trace < 0 {
		modes = []int{0, 1}
	}
	all := harness.Results{
		Machine: map[string]any{"goos": runtime.GOOS, "goarch": runtime.GOARCH, "nproc": runtime.NumCPU(), "go": runtime.Version()},
		Seed:    o.seed, Seconds: o.seconds,
	}
	probes := o.probes
	var failed []string
	for _, mode := range modes { // timed runs first, traced runs after
		for _, name := range names {
			args := []string{"-workload", name, "-trace", fmt.Sprint(mode), "-seed", fmt.Sprint(o.seed),
				"-seconds", fmt.Sprint(o.seconds), "-out", o.out}
			if mode == 1 {
				// The probes do not depend on the workload: once is enough.
				args = append(args, "-probes", fmt.Sprint(probes))
				probes = 0
			}
			path := outcomePath(o.out, name, mode)
			if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s -trace %d: %v", name, mode, err))
			}
			var res harness.Outcome
			if err := harness.ReadJSON(path, &res); err != nil {
				return err
			}
			all.Add(&res)
		}
	}
	if v, ok := all.Probes["harness.calib_mops"]; ok {
		all.Machine["calib_mops"] = v.Value.Value
	}
	if err := harness.WriteJSON(filepath.Join(o.out, "results.json"), all); err != nil {
		return err
	}
	fmt.Println("# wrote", filepath.Join(o.out, "results.json"))
	if len(failed) > 0 {
		return fmt.Errorf("%d runs failed: %v", len(failed), failed)
	}
	return nil
}
