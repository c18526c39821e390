package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bmx/internal/addr"
	"bmx/internal/transport"
)

// nodeTransport is the per-node view of the cluster transport handed to the
// node's DSM engine and collector. Its one job is deadlock avoidance: an
// outbound synchronous Call releases the node's lock for the duration of
// the exchange, because the remote handler chain may legitimately call back
// into this node (a write grant invalidates the requester's own copy-set
// entries; ownership forwarding chains can revisit any hop). A goroutine
// therefore holds at most one node lock at any moment, and every blocked
// Call holds none. Asynchronous Sends only enqueue — no handler runs — so
// they keep the lock.
//
// Lock ownership is explicit: every call through a node's transport is made
// by the holder of that node's lock — a mutator or collector bracket, or
// handleCall/handleAsync serving a message — so Call always releases the
// lock and takes it back. The TryLock tripwire catches a Call made without
// the lock only while the lock is free: it then panics naming the
// violation. If another goroutine holds the lock at that moment, Call
// releases that goroutine's lock and mutual exclusion breaks silently — the
// tripwire is a debugging aid, not a guard.
type nodeTransport struct {
	n     *Node
	inner transport.Network
}

func (t *nodeTransport) Send(m transport.Msg) bool { return t.inner.Send(m) }

// tripwireMsg is the tripwire's panic message.
const tripwireMsg = "cluster: transport call without the node lock held: every call through a node's transport must come from inside its lock bracket"

func (t *nodeTransport) Call(m transport.Msg) (any, error) {
	mu := &t.n.mu
	if mu.TryLock() {
		mu.Unlock()
		panic(fmt.Sprintf("%s (%s %v -> %v)", tripwireMsg, m.Kind, m.From, m.To))
	}
	mu.Unlock()
	defer mu.Lock()
	return t.inner.Call(m)
}

func (t *nodeTransport) Register(id addr.NodeID, h transport.Handler, c transport.CallHandler) {
	t.inner.Register(id, h, c)
}

func (t *nodeTransport) Clock() *transport.Clock { return t.inner.Clock() }
func (t *nodeTransport) Stats() *transport.Stats { return t.inner.Stats() }

// RunConcurrent drains pending background messages with one delivery
// goroutine per node, so deliveries to different nodes proceed in parallel
// while each (from, to) stream stays FIFO (every destination has exactly
// one consumer). It stops when no messages remain, or after limit
// deliveries (limit <= 0 means no limit), and returns the number delivered.
//
// Unlike Run, the global delivery order is not deterministic; use it for
// throughput, Run for reproducibility.
func (cl *Cluster) RunConcurrent(limit int) int {
	var delivered atomic.Int64
	for {
		var passed atomic.Int64
		var wg sync.WaitGroup
		for _, n := range cl.nodes {
			wg.Add(1)
			go func(dst addr.NodeID) {
				defer wg.Done()
				for {
					if limit > 0 && delivered.Add(1) > int64(limit) {
						delivered.Add(-1)
						return
					}
					if !cl.net.StepFor(dst) {
						if limit > 0 {
							delivered.Add(-1)
						}
						return
					}
					if limit <= 0 {
						delivered.Add(1)
					}
					passed.Add(1)
				}
			}(n.id)
		}
		wg.Wait()
		// Handlers may have enqueued fresh messages after a node's drainer
		// saw its queues empty and exited; run another pass until one
		// delivers nothing (the network is then quiescent).
		if passed.Load() == 0 || (limit > 0 && delivered.Load() >= int64(limit)) {
			break
		}
	}
	return int(delivered.Load())
}
