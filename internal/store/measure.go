package store

import (
	"fmt"
	"time"

	"bmx/internal/obs"
)

// Counter is the slice of the cluster's counter registry the store layer
// needs (transport.Stats satisfies it). Keeping the dependency this thin
// lets the store package stay below transport in the import graph.
type Counter interface {
	Add(name string, d int64)
}

// Measured decorates a Store with observability: every operation updates
// the flat counter registry (deterministic — byte and call counts only)
// and two histograms (sync batch sizes, real operation latency — real time
// never enters the counters, which the chaos determinism fingerprint
// covers). Counters:
//
//	store.bytes.written   bytes handed to Write/Append
//	store.bytes.synced    bytes made durable by Sync
//	store.syncs           Sync calls
//	store.writes          Write + Append calls
//	store.reads           Read + ReadDurable calls
//
// Histograms: store.sync.bytes, store.op.ns.
type Measured struct {
	inner Store
	c     Counter
	sizes *obs.Histogram
	opNS  *obs.Histogram
}

var _ Store = (*Measured)(nil)

// Measure wraps inner. Either c or o may be nil; the corresponding sink is
// skipped.
func Measure(inner Store, c Counter, o *obs.Observer) *Measured {
	return &Measured{
		inner: inner,
		c:     c,
		sizes: o.Hist("store.sync.bytes"),
		opNS:  o.Hist("store.op.ns"),
	}
}

func (m *Measured) add(name string, d int64) {
	if m.c != nil {
		m.c.Add(name, d)
	}
}

func (m *Measured) timed() func() {
	start := time.Now()
	return func() { m.opNS.Observe(time.Since(start).Nanoseconds()) }
}

// Write replaces the volatile contents of name.
func (m *Measured) Write(name string, data []byte) {
	defer m.timed()()
	m.inner.Write(name, data)
	m.add("store.writes", 1)
	m.add("store.bytes.written", int64(len(data)))
}

// Append extends the volatile contents of name.
func (m *Measured) Append(name string, data []byte) {
	defer m.timed()()
	m.inner.Append(name, data)
	m.add("store.writes", 1)
	m.add("store.bytes.written", int64(len(data)))
}

// Sync makes the volatile contents of name durable.
func (m *Measured) Sync(name string) {
	defer m.timed()()
	_, before, _ := m.inner.Stats()
	m.inner.Sync(name)
	_, after, _ := m.inner.Stats()
	m.add("store.syncs", 1)
	m.add("store.bytes.synced", after-before)
	m.sizes.Observe(after - before)
}

// Read returns the volatile contents of name.
func (m *Measured) Read(name string) ([]byte, bool) {
	m.add("store.reads", 1)
	return m.inner.Read(name)
}

// ReadDurable returns the durable contents of name.
func (m *Measured) ReadDurable(name string) ([]byte, bool) {
	m.add("store.reads", 1)
	return m.inner.ReadDurable(name)
}

// Remove deletes a file.
func (m *Measured) Remove(name string) { m.inner.Remove(name) }

// Rename atomically moves oldName to newName.
func (m *Measured) Rename(oldName, newName string) { m.inner.Rename(oldName, newName) }

// Crash discards all volatile state.
func (m *Measured) Crash() { m.inner.Crash() }

// Files lists the existing file names, sorted.
func (m *Measured) Files() []string { return m.inner.Files() }

// Stats returns the decorated store's cumulative counters.
func (m *Measured) Stats() (written, synced, syncs int64) { return m.inner.Stats() }

// String summarizes the decorated store.
func (m *Measured) String() string { return fmt.Sprintf("measured(%s)", m.inner.String()) }
