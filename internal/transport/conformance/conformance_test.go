package conformance_test

import (
	"testing"
	"time"

	"bmx/internal/addr"
	"bmx/internal/simnet"
	"bmx/internal/transport"
	"bmx/internal/transport/conformance"
	"bmx/internal/transport/tcp"
)

// lossy is a fault plan that drops asynchronous sends with probability p
// and injects nothing else.
func lossy(p float64) transport.FaultPlan {
	return transport.FaultPlan{Default: transport.FaultRates{Drop: p}}
}

// The deterministic in-process network: one shared substrate for all
// nodes, delivery driven by Pump.
func TestConformanceSimnet(t *testing.T) {
	conformance.Run(t, func(t *testing.T, nodes []addr.NodeID) *conformance.Env {
		nw := simnet.New(simnet.Options{})
		return &conformance.Env{
			Endpoint: func(addr.NodeID) transport.Transport { return nw },
			Pump:     func() { nw.Run(0) },
			SetLoss:  func(p float64) { nw.SetFaultPlan(lossy(p)) },
		}
	})
}

// The real-socket transport: one process-analog per node, connected in a
// full loopback mesh, delivering continuously. Endpoint i dials endpoint j
// for i < j, so each pair shares one stream.
func TestConformanceTCP(t *testing.T) {
	conformance.Run(t, tcpMesh(func(i, j int) bool { return i < j }))
}

// The topology every NewPeer cluster runs: every endpoint dials every
// other, so each pair keeps two streams, and each endpoint sends only on
// the streams it dialed.
func TestConformanceTCPMutualDial(t *testing.T) {
	conformance.Run(t, tcpMesh(func(i, j int) bool { return i != j }))
}

// tcpMesh builds one TCP endpoint per node, endpoint i dialing endpoint j
// wherever dials(i, j). Every AddPeer comes before the suite registers a
// node, as AddPeer asks of a pair that dials both ways.
func tcpMesh(dials func(i, j int) bool) conformance.Factory {
	return func(t *testing.T, nodes []addr.NodeID) *conformance.Env {
		eps := make(map[addr.NodeID]*tcp.Transport, len(nodes))
		var all []*tcp.Transport
		for _, id := range nodes {
			tr, err := tcp.New(tcp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tr.Close() })
			eps[id] = tr
			all = append(all, tr)
		}
		for i, a := range all {
			for j, b := range all {
				if dials(i, j) {
					a.AddPeer(b.Addr())
				}
			}
		}
		return &conformance.Env{
			Endpoint: func(id addr.NodeID) transport.Transport { return eps[id] },
			Pump:     func() {},
			SetLoss: func(p float64) {
				for _, tr := range all {
					tr.SetFaultPlan(lossy(p))
				}
			},
			Settle: func() {
				for _, tr := range all {
					if err := tr.WaitForNodes(len(all)-1, 10*time.Second); err != nil {
						t.Fatal(err)
					}
				}
			},
		}
	}
}
