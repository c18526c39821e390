package probe

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bmx/bench/internal/harness"
	"bmx/internal/addr"
	"bmx/internal/dsm"
	"bmx/internal/simnet"
	"bmx/internal/transport"
	"bmx/internal/transport/tcp"
)

// transportProbes time the counter registry every message and every acquire
// goes through: one mutex and one string-keyed map per count.
func transportProbes(v harness.Values, _ string) error {
	const iters = 1_000_000
	st := transport.NewStats()
	add := func(n int) error {
		for i := 0; i < n; i++ {
			st.Add("msg.sent.app", 1)
		}
		return nil
	}
	ns, _ := perIter(iters, nil, add)
	v.Set("transport.stats_add_ns", ns, Reps)

	// Two goroutines, as many as the box has cores, on the one registry.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2)) // the benchmark runs on one P
	ns, _ = perIter(iters, nil, func(n int) error {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				add(n / 2)
			}()
		}
		wg.Wait()
		return nil
	})
	v.Set("transport.stats_add_contended_ns", ns, Reps)
	return nil
}

func echo(m transport.Msg) (any, int, error) { return m.Payload, m.Bytes, nil }

// simnetProbes time the simulated network alone: a bare simnet.New with echo
// handlers and a nil payload, so what is left is queueing, clock and
// counters.
func simnetProbes(v harness.Values, _ string) error {
	const iters = 100_000
	nw := simnet.New(simnet.Options{Seed: 1})
	for id := addr.NodeID(0); id < 2; id++ {
		nw.Register(id, func(transport.Msg) {}, echo)
	}
	msg := transport.Msg{From: 0, To: 1, Kind: "probe.echo", Class: transport.ClassApp}
	call := func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := nw.Call(msg); err != nil {
				return err
			}
		}
		return nil
	}
	ns, err := perIter(iters, nil, call)
	if err != nil {
		return wrap("simnet.call_ns", err)
	}
	v.Set("simnet.call_ns", ns, Reps)
	allocs, err := allocsPerIter(iters, call)
	if err != nil {
		return wrap("simnet.call_allocs", err)
	}
	v.Set("simnet.call_allocs", allocs, Reps)

	ns, err = perIter(iters, nil, func(n int) error {
		for i := 0; i < n; i++ {
			if !nw.Send(msg) || !nw.Step() {
				return fmt.Errorf("send %d was not delivered", i)
			}
		}
		return nil
	})
	if err != nil {
		return wrap("simnet.send_step_ns", err)
	}
	v.Set("simnet.send_step_ns", ns, Reps)
	return nil
}

// tcpPair is two tcp.Transports in this process joined over loopback, node 0
// on one and node 1 on the other, node 1 echoing calls and counting sends.
type tcpPair struct {
	a, b     *tcp.Transport
	received atomic.Int64
}

func newTCPPair() (*tcpPair, error) {
	p := &tcpPair{}
	var err error
	if p.a, err = tcp.New(tcp.Options{}); err != nil { // an ephemeral loopback port
		return nil, err
	}
	if p.b, err = tcp.New(tcp.Options{Peers: []string{p.a.Addr()}}); err != nil {
		p.a.Close()
		return nil, err
	}
	p.a.Register(0, func(transport.Msg) {}, echo)
	p.b.Register(1, func(transport.Msg) { p.received.Add(1) }, echo)
	for _, t := range []*tcp.Transport{p.a, p.b} {
		if err := t.WaitForNodes(1, 30*time.Second); err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

func (p *tcpPair) Close() {
	p.a.Close()
	p.b.Close()
}

// tcpProbes time the real wire: call round trips over loopback with three
// payloads (none; 64 words; an 8-entry location batch, the gob-heaviest
// thing the protocol ships), the asynchronous send rate, and how long three
// peers take to find each other.
func tcpProbes(v harness.Values, _ string) error {
	calls := scaled(2000)
	p, err := newTCPPair()
	if err != nil {
		return wrap("tcp pair", err)
	}
	defer p.Close()

	batch := dsm.LocBatchMsg{From: 0}
	for i := 0; i < 8; i++ {
		batch.Entries = append(batch.Entries, dsm.LocMsg{O: addr.OID(i + 1), From: 0,
			Manifests: []dsm.Manifest{{OID: addr.OID(i + 1), Addr: addr.Addr(4096 * (i + 1)), Size: 4, Bunch: 1, Epoch: 1}}})
	}
	payloads := []struct {
		name    string
		payload any
		bytes   int
	}{{"nil", nil, 0}, {"words64", make([]uint64, 64), 512}, {"locbatch8", batch, 8 * 48}}
	p50 := map[string]float64{}
	for _, pl := range payloads {
		msg := transport.Msg{From: 0, To: 1, Kind: "probe.echo", Class: transport.ClassApp, Payload: pl.payload, Bytes: pl.bytes}
		var rtt harness.Hist
		err := onClient(func() error {
			for i := 0; i < calls; i++ {
				start := time.Now()
				if _, err := p.a.Call(msg); err != nil {
					return err
				}
				rtt.Add(int64(time.Since(start)))
			}
			return nil
		})
		if err != nil {
			return wrap("tcp.call_rtt."+pl.name, err)
		}
		p50[pl.name] = rtt.Quantile(0.5) / 1e3
		v.Set("tcp.call_rtt_p50_us."+pl.name, p50[pl.name], uint64(calls))
		if pl.name == "nil" {
			v.Set("tcp.call_rtt_p99_us.nil", rtt.Quantile(0.99)/1e3, uint64(calls))
		}
	}
	v.Set("tcp.payload_cost_us", p50["locbatch8"]-p50["nil"], uint64(calls))

	nilMsg := transport.Msg{From: 0, To: 1, Kind: "probe.echo", Class: transport.ClassApp}
	allocs, err := allocsPerIter(calls, func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := p.a.Call(nilMsg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return wrap("tcp.call_allocs", err)
	}
	v.Set("tcp.call_allocs", allocs, Reps)

	const sends = 20000
	ns, err := perIter(sends, nil, func(n int) error {
		want := p.received.Load() + int64(n)
		for i := 0; i < n; i++ {
			if !p.a.Send(nilMsg) {
				return fmt.Errorf("send %d was refused", i)
			}
		}
		for deadline := time.Now().Add(30 * time.Second); p.received.Load() < want; {
			if time.Now().After(deadline) {
				return fmt.Errorf("only %d of %d sends arrived", n-int(want-p.received.Load()), n)
			}
			time.Sleep(50 * time.Microsecond)
		}
		return nil
	})
	if err != nil {
		return wrap("tcp.send_msgs_per_s", err)
	}
	v.Set("tcp.send_msgs_per_s", 1e9/ns, Reps)

	start := time.Now()
	peers, err := harness.StartMesh(3, 1)
	if err != nil {
		return wrap("tcp.mesh_ready_ms", err)
	}
	v.Set("tcp.mesh_ready_ms", float64(time.Since(start))/1e6, 1)
	for _, peer := range peers {
		peer.Close()
	}
	return nil
}
