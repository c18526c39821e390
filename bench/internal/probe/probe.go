// Package probe measures single layers in isolation: each probe is a tight,
// fixed-iteration loop on the smallest fixture that exercises one exported
// seam of one module, repeated Reps times, the median reported. Probes do not
// depend on the workload; their numbers say what one call into a layer costs
// at HEAD, so that a per-layer change has a number of its own to move.
package probe

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"bmx/bench/internal/harness"
)

// Reps is how many times every probe repeats its loop.
const Reps = 5

// iterScale divides every probe's loop length. It is 1; the package's test
// raises it so that a pass over all probes fits tier-1's budget.
var iterScale = 1

func scaled(n int) int { return max(n/iterScale, 2) }

// All runs every probe and adds its metrics to v. tmp is a directory the
// store probes may write under.
func All(v harness.Values, tmp string) error {
	for _, group := range []func(harness.Values, string) error{
		harnessProbes, clusterProbes, dsmProbes, transportProbes, simnetProbes,
		tcpProbes, coreProbes, rvmProbes, storeProbes, overheadProbes,
	} {
		if err := group(v, tmp); err != nil {
			return err
		}
	}
	return nil
}

// perIter runs loop(n) Reps times and returns the median time of one
// iteration in nanoseconds. Each repetition gets a fresh fixture from setup
// (which may be nil).
func perIter(n int, setup func() error, loop func(n int) error) (float64, error) {
	n = scaled(n)
	times := make([]float64, 0, Reps)
	for r := 0; r < Reps; r++ {
		if setup != nil {
			if err := setup(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		if err := onClient(func() error { return loop(n) }); err != nil {
			return 0, err
		}
		times = append(times, float64(time.Since(start))/float64(n))
	}
	return harness.Median(times), nil
}

// onClient runs f on a goroutine of its own and waits for it, like the
// workloads' op loop and for the same reason: at HEAD a mutator call costs
// more the deeper the stack it is made from.
func onClient(f func() error) error {
	errc := make(chan error, 1)
	go func() { errc <- f() }()
	return <-errc
}

// allocsPerIter returns the heap allocations one iteration of loop makes,
// process-wide, as the median of Reps counts rounded to a hundredth: exact
// for code that allocates the same on every iteration.
func allocsPerIter(n int, loop func(n int) error) (float64, error) {
	n = scaled(n)
	counts := make([]float64, 0, Reps)
	var m0, m1 runtime.MemStats
	for r := 0; r < Reps; r++ {
		runtime.ReadMemStats(&m0)
		if err := onClient(func() error { return loop(n) }); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&m1)
		counts = append(counts, float64(m1.Mallocs-m0.Mallocs)/float64(n))
	}
	return math.Round(harness.Median(counts)*100) / 100, nil
}

var sink uint64

// harnessProbes qualify the box and the clock: a pure-CPU loop that should
// read the same on every run of a quiet machine, and the cost of one
// time.Now/time.Since pair, which every op of the timed loop pays twice.
func harnessProbes(v harness.Values, _ string) error {
	const calibIters = 20_000_000
	ns, _ := perIter(calibIters, nil, func(n int) error {
		x := uint64(88172645463325252)
		for i := 0; i < n; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		sink = x
		return nil
	})
	v.Set("harness.calib_mops", 1e3/ns, Reps)

	ns, _ = perIter(1_000_000, nil, func(n int) error {
		var d time.Duration
		for i := 0; i < n; i++ {
			d += time.Since(time.Now())
		}
		sink = uint64(d)
		return nil
	})
	v.Set("harness.clock_ns", ns, Reps)
	return nil
}

func wrap(what string, err error) error {
	if err != nil {
		return fmt.Errorf("probe %s: %w", what, err)
	}
	return nil
}
