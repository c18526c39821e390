package transport

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"bmx/internal/obs"
)

// Stats is a concurrency-safe counter registry. Every layer of the system
// (network, DSM protocol, collectors) records its events here under dotted
// names, so experiments can assert structural claims such as "the collector
// acquired zero tokens" or "GC added zero non-piggybacked messages".
//
// Each name is registered once, on its first Add, as an atomic cell in a
// copy-on-write table. After that an Add is a read of an immutable map plus
// one atomic add: it takes no mutex and writes no map. Every entry point is
// safe while the cluster runs, but readings are atomic per counter only:
// Snapshot loads the cells one by one, so concurrent Adds may
// land in some counters and not yet in others.
//
// Every Stats also carries the cluster's obs.Observer — the structured
// flight recorder that extends these flat counters with an ordered,
// per-node event window and histograms. Attaching it here means every
// layer that can already count (anything holding a Transport) can also
// trace, with no new plumbing.
type Stats struct {
	cells cowMap[*atomic.Int64]

	obs *obs.Observer
}

// NewStats returns an empty registry with a fresh (disabled) observer.
func NewStats() *Stats {
	return &Stats{obs: obs.NewObserver()}
}

// Observer returns the flight recorder riding on this registry. It is never
// nil for a Stats made by NewStats; a zero Stats returns nil, which every
// obs entry point tolerates.
func (s *Stats) Observer() *obs.Observer {
	if s == nil {
		return nil
	}
	return s.obs
}

// Add increments counter name by d. The name is registered even when d is
// zero, so Snapshot lists it from then on.
func (s *Stats) Add(name string, d int64) { s.cells.getOrAdd(name, newCell).Add(d) }

func newCell() *atomic.Int64 { return new(atomic.Int64) }

// Get returns the current value of counter name (zero if never touched).
func (s *Stats) Get(name string) int64 {
	if c, ok := s.cells.get(name); ok {
		return c.Load()
	}
	return 0
}

// Snapshot returns a copy of all counters, each read atomically on its own
// (not one point-in-time view across counters while Adds are in flight).
func (s *Stats) Snapshot() map[string]int64 {
	t := s.cells.all()
	out := make(map[string]int64, len(t))
	for k, c := range t {
		out[k] = c.Load()
	}
	return out
}

// Reset clears every counter, forgetting every registered name. Call it at
// quiescence: an Add that looked up its cell before Reset and adds after it
// lands in the dropped cell, and is lost — as if it had run before Reset.
func (s *Stats) Reset() { s.cells.reset() }

// String renders the non-zero counters sorted by name, one per line.
func (s *Stats) String() string {
	snap := s.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var b strings.Builder
	for _, k := range keys {
		if snap[k] != 0 {
			fmt.Fprintf(&b, "%-40s %d\n", k, snap[k])
		}
	}
	return b.String()
}

// CountSend records one outbound message leg — a Send, or the request of a
// Call — under msg.sent.<class>, msg.sent.kind.<kind> and bytes.sent.<class>.
func (s *Stats) CountSend(m Msg) {
	s.Add(msgSent.Name(m.Class), 1)
	s.Add(kindCounters(m.Kind).sent, 1)
	s.Add(bytesSent.Name(m.Class), int64(m.Bytes))
}

// CountReply records the reply leg of Call m, replyBytes long, under
// msg.sent.<class>, msg.sent.kind.<kind>.reply and bytes.sent.<class>.
func (s *Stats) CountReply(m Msg, replyBytes int) {
	s.Add(msgSent.Name(m.Class), 1)
	s.Add(kindCounters(m.Kind).reply, 1)
	s.Add(bytesSent.Name(m.Class), int64(replyBytes))
}

// ClassCounter is a per-class counter-name table, prefix+class for every
// defined class, built once so that a path counting per message or per
// acquire indexes a name instead of formatting one.
type ClassCounter struct {
	prefix string
	names  [ClassGC + 1]string
}

// NewClassCounter builds the table for prefix (e.g. "msg.sent.").
func NewClassCounter(prefix string) *ClassCounter {
	cc := &ClassCounter{prefix: prefix}
	for c := range cc.names {
		cc.names[c] = prefix + Class(c).String()
	}
	return cc
}

// Name returns prefix+c.String().
func (cc *ClassCounter) Name(c Class) string {
	if c.Valid() {
		return cc.names[c]
	}
	return cc.prefix + c.String()
}

var (
	msgSent   = NewClassCounter("msg.sent.")
	bytesSent = NewClassCounter("bytes.sent.")
)

// kindNames are the two per-kind counter names of a message kind.
type kindNames struct{ sent, reply string }

// kindTable interns kindNames per message kind. Kinds are a small fixed
// vocabulary, so after warm-up every lookup reads an immutable map.
var kindTable cowMap[kindNames]

func kindCounters(kind string) kindNames {
	return kindTable.getOrAdd(kind, func() kindNames {
		return kindNames{sent: "msg.sent.kind." + kind, reply: "msg.sent.kind." + kind + ".reply"}
	})
}

// cowMap is a copy-on-write string-keyed map for small vocabularies that
// are read on every operation and grow rarely: a lookup reads an immutable
// snapshot with no lock; an insert copies the snapshot under mu.
type cowMap[V any] struct {
	mu sync.Mutex
	p  atomic.Pointer[map[string]V]
}

// all returns the current snapshot (nil while empty); callers must not
// modify it.
func (m *cowMap[V]) all() map[string]V {
	if p := m.p.Load(); p != nil {
		return *p
	}
	return nil
}

func (m *cowMap[V]) get(k string) (V, bool) {
	v, ok := m.all()[k]
	return v, ok
}

// getOrAdd returns k's value, inserting mk() first if k is absent.
func (m *cowMap[V]) getOrAdd(k string, mk func() V) V {
	if v, ok := m.get(k); ok {
		return v
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old := m.all()
	if v, ok := old[k]; ok {
		return v
	}
	next := make(map[string]V, len(old)+1)
	for ek, ev := range old {
		next[ek] = ev
	}
	v := mk()
	next[k] = v
	m.p.Store(&next)
	return v
}

// reset empties the map.
func (m *cowMap[V]) reset() {
	m.mu.Lock()
	m.p.Store(nil)
	m.mu.Unlock()
}
