package harness

import (
	"bmx/internal/store"
	"bmx/internal/transport"
)

// The two decorators below are how the traced run sees inside an op without
// touching the program: a transport.Network handed to the cluster as
// Config.Transport and a store.Store returned from Config.Store. Both record
// spans only while their tracer is set, which the runner does for the traced
// loop alone; set-up and warm-up pass straight through.

// TracedNet wraps a driver-paced network and records one span per
// synchronous call and per asynchronous send, named by message kind. Calls
// nest (a forwarded dsm.acquire contains the owner's dsm.invalidates), and
// the tracer's stack charges each its self time.
type TracedNet struct {
	transport.Network
	tr      *Tracer
	calls   int // synchronous calls seen while tracing
	callIDs map[string]uint16
	sendIDs map[string]uint16
}

// NewTracedNet decorates inner.
func NewTracedNet(inner transport.Network) *TracedNet {
	return &TracedNet{Network: inner, callIDs: map[string]uint16{}, sendIDs: map[string]uint16{}}
}

func (d *TracedNet) spanID(ids map[string]uint16, prefix, kind string) uint16 {
	id, ok := ids[kind]
	if !ok {
		id = d.tr.ID(prefix + kind)
		ids[kind] = id
	}
	return id
}

// SetTracer switches span recording on (non-nil) or off.
func (d *TracedNet) SetTracer(tr *Tracer) {
	d.tr = tr
	clear(d.callIDs)
	clear(d.sendIDs)
}

// Call times one synchronous exchange, handler included.
func (d *TracedNet) Call(m transport.Msg) (any, error) {
	if d.tr == nil {
		return d.Network.Call(m)
	}
	d.calls++
	sp := d.tr.Begin(d.spanID(d.callIDs, "net.call:", m.Kind))
	reply, err := d.Network.Call(m)
	d.tr.End(sp)
	return reply, err
}

// Send times one enqueue.
func (d *TracedNet) Send(m transport.Msg) bool {
	if d.tr == nil {
		return d.Network.Send(m)
	}
	sp := d.tr.Begin(d.spanID(d.sendIDs, "net.send:", m.Kind))
	ok := d.Network.Send(m)
	d.tr.End(sp)
	return ok
}

// StoreProbe is what the store decorators of one cluster share: the tracer
// and the counts the per-layer store and rvm metrics are made of.
type StoreProbe struct {
	tr                   *Tracer
	write, appendID, syn uint16

	Writes, Appends, Syncs int64
	BytesWritten           int64 // Write + Append payload bytes
	LogBytes               int64 // bytes appended to the RVM log
	SyncNS                 Hist
}

// rvmLogName is the file the cluster gives its recoverable log.
const rvmLogName = "rvm-log"

// SetTracer switches span recording and counting on (non-nil) or off.
func (p *StoreProbe) SetTracer(tr *Tracer) {
	p.tr = tr
	p.write, p.appendID, p.syn = tr.ID("store.write"), tr.ID("store.append"), tr.ID("store.sync")
}

// TracedStore wraps one node's store.
type TracedStore struct {
	store.Store
	p *StoreProbe
}

// Wrap decorates inner with p.
func (p *StoreProbe) Wrap(inner store.Store) *TracedStore { return &TracedStore{Store: inner, p: p} }

func (s *TracedStore) Write(name string, data []byte) {
	if s.p.tr == nil {
		s.Store.Write(name, data)
		return
	}
	sp := s.p.tr.Begin(s.p.write)
	s.Store.Write(name, data)
	s.p.tr.End(sp)
	s.p.Writes++
	s.p.BytesWritten += int64(len(data))
}

func (s *TracedStore) Append(name string, data []byte) {
	if s.p.tr == nil {
		s.Store.Append(name, data)
		return
	}
	sp := s.p.tr.Begin(s.p.appendID)
	s.Store.Append(name, data)
	s.p.tr.End(sp)
	s.p.Appends++
	s.p.BytesWritten += int64(len(data))
	if name == rvmLogName {
		s.p.LogBytes += int64(len(data))
	}
}

func (s *TracedStore) Sync(name string) {
	if s.p.tr == nil {
		s.Store.Sync(name)
		return
	}
	sp := s.p.tr.Begin(s.p.syn)
	s.Store.Sync(name)
	s.p.tr.End(sp)
	s.p.Syncs++
	span := s.p.tr.spans[sp]
	s.p.SyncNS.Add(span.End - span.Start)
}
