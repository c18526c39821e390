package transport

import "sync/atomic"

// Clock is the simulated tick clock shared by a cluster. Message latencies
// and garbage-collection work (per-word copy and scan costs) advance it, so
// pause times and overheads are reproducible and hardware independent. It is
// one atomic word: reading or advancing it takes no lock.
type Clock struct {
	t atomic.Uint64
}

// Now returns the current simulated time in ticks.
func (c *Clock) Now() uint64 { return c.t.Load() }

// Advance moves simulated time forward by d ticks and returns the new time.
func (c *Clock) Advance(d uint64) uint64 { return c.t.Add(d) }

// Observe merges a tick observed on a remote clock into this one, Lamport
// style: the local time becomes max(local, remote)+1 and is returned. A
// multi-process transport calls Observe on every received frame so that
// cross-process tick attribution (event timestamps, cost accounting) stays
// coherent: any tick recorded after a receive compares greater than every
// tick the sender stamped before the send. The in-process simnet shares one
// Clock between all nodes and never calls Observe, so its tick streams are
// byte-identical to builds that predate this method.
func (c *Clock) Observe(remote uint64) uint64 {
	for {
		cur := c.t.Load()
		next := max(cur, remote) + 1
		if c.t.CompareAndSwap(cur, next) {
			return next
		}
	}
}

// Stopwatch measures a simulated-time interval.
type Stopwatch struct {
	clock *Clock
	start uint64
}

// StartWatch begins measuring simulated time on c.
func StartWatch(c *Clock) Stopwatch { return Stopwatch{clock: c, start: c.Now()} }

// Elapsed returns the simulated ticks since the stopwatch started.
func (s Stopwatch) Elapsed() uint64 { return s.clock.Now() - s.start }
