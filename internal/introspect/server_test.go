package introspect_test

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"bmx"
	"bmx/internal/introspect"
	"bmx/internal/obs"
	"bmx/internal/trace"
)

// newServedCluster runs a small real workload and wires the introspection
// server over it the same way bmxd does.
func newServedCluster(t *testing.T) (*bmx.Cluster, *httptest.Server) {
	t.Helper()
	cl := bmx.New(bmx.Config{Nodes: 3, SegWords: 256, Seed: 7, SendLatency: 1, CallLatency: 1})
	cl.EnableTracing()
	cl.EnableSampling(0)
	cl.EnableHeat()

	n0, n1 := cl.Node(0), cl.Node(1)
	b := n0.NewBunch()
	g, err := trace.BuildList(n0, b, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Share(g.Objects, n1, cl.Node(2)); err != nil {
		t.Fatal(err)
	}
	for r := 1; r <= 3; r++ {
		if err := trace.MutateValues(cl.Node(r%3), g, 6, int64(r)); err != nil {
			t.Fatal(err)
		}
		if r%2 == 0 {
			n0.CollectBunch(b)
		}
		cl.Run(0)
	}

	srv := &introspect.Server{
		Counters: cl.Stats().Snapshot,
		Observer: cl.Observer(),
		Sampler:  cl.Sampler(),
		Heat:     cl.Heat,
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return cl, ts
}

func get(t *testing.T, ts *httptest.Server, url string) (int, string) {
	t.Helper()
	resp, err := ts.Client().Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpointIsValidPromText(t *testing.T) {
	cl, s := newServedCluster(t)
	code, body := get(t, s, s.URL+"/metrics")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	fams, err := obs.ParsePromText(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics is not valid exposition text: %v", err)
	}
	// The real counters and the real histograms must both be present.
	c, ok := fams["bmx_msg_sent_app"]
	if !ok || c.Type != "counter" {
		t.Fatal("bmx_msg_sent_app missing")
	}
	if got := c.Samples["bmx_msg_sent_app"][0].Value; int64(got) != cl.Stats().Get("msg.sent.app") {
		t.Fatalf("counter drifted: %v vs %d", got, cl.Stats().Get("msg.sent.app"))
	}
	h, ok := fams["bmx_dsm_acquire_hops"]
	if !ok || h.Type != "histogram" {
		t.Fatal("bmx_dsm_acquire_hops histogram missing")
	}
	// The runtime gauges ride the same scrape.
	bi, ok := fams["bmx_build_info"]
	if !ok || bi.Type != "gauge" {
		t.Fatal("bmx_build_info gauge missing")
	}
	s0 := bi.Samples["bmx_build_info"][0]
	if s0.Value != 1 || s0.Labels["go_version"] == "" {
		t.Fatalf("build info sample = %+v", s0)
	}
	gr, ok := fams["bmx_goroutines"]
	if !ok || gr.Type != "gauge" || gr.Samples["bmx_goroutines"][0].Value <= 0 {
		t.Fatalf("goroutine gauge wrong: %+v", gr)
	}
	if ha, ok := fams["bmx_heap_alloc_bytes"]; !ok || ha.Type != "gauge" {
		t.Fatal("bmx_heap_alloc_bytes gauge missing")
	}
	// The span-latency histograms registered by the tracer serve too.
	if sp, ok := fams["bmx_span_ticks_op_acquire_w"]; !ok || sp.Type != "histogram" {
		t.Fatal("span latency histogram missing from /metrics")
	}
}

func TestSpansEndpointServesSpanEvents(t *testing.T) {
	_, s := newServedCluster(t)
	code, body := get(t, s, s.URL+"/spans")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	st, err := obs.ReadStream(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/spans is not a parseable telemetry stream: %v", err)
	}
	evs := st.Events
	if len(evs) == 0 {
		t.Fatal("no span events served (the workload acquires, so spans must exist)")
	}
	for _, e := range evs {
		if e.Kind != obs.KSpanBegin && e.Kind != obs.KSpanEnd {
			t.Fatalf("/spans leaked non-span event %v", e)
		}
		if e.Span == 0 {
			t.Fatalf("span event with zero span ID: %v", e)
		}
	}
	if traces := obs.BuildSpanTraces(evs); len(traces) == 0 {
		t.Fatal("served span events do not reconstruct into any trace")
	}
}

func TestEventsEndpointServesNDJSON(t *testing.T) {
	_, s := newServedCluster(t)
	code, body := get(t, s, s.URL+"/events")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	st, err := obs.ReadStream(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/events is not a parseable telemetry stream: %v", err)
	}
	evs := st.Events
	if len(evs) == 0 {
		t.Fatal("no events served")
	}
	// Filtered query returns only the named object.
	oid := evs[0].OID
	for _, e := range evs {
		if !e.OID.IsNil() {
			oid = e.OID
			break
		}
	}
	code, body = get(t, s, s.URL+"/events?oid="+strings.TrimPrefix(oid.String(), "O"))
	if code != 200 {
		t.Fatalf("filter status %d", code)
	}
	fst, err := obs.ReadStream(strings.NewReader(body))
	fevs := fst.Events
	if err != nil || len(fevs) == 0 {
		t.Fatalf("filtered events: %v, %d", err, len(fevs))
	}
	for _, e := range fevs {
		if e.OID != oid {
			t.Fatalf("filter leaked %v", e)
		}
	}
	if code, _ := get(t, s, s.URL+"/events?oid=bogus"); code != 400 {
		t.Fatalf("bad oid filter status = %d", code)
	}
}

func TestObjectBiographyEndpoint(t *testing.T) {
	_, s := newServedCluster(t)
	// Object 2 is part of every list workload and gets token traffic.
	code, body := get(t, s, s.URL+"/objects/O2")
	if code != 200 {
		t.Fatalf("status %d: %s", code, body)
	}
	var bio struct {
		OID     string `json:"oid"`
		Owners  []string
		Entries []struct {
			Kind string `json:"kind"`
			What string `json:"what"`
		}
	}
	if err := json.Unmarshal([]byte(body), &bio); err != nil {
		t.Fatalf("biography is not JSON: %v", err)
	}
	if bio.OID != "O2" || len(bio.Entries) == 0 {
		t.Fatalf("biography = %+v", bio)
	}
	// Bare-number form works too.
	if code, _ := get(t, s, s.URL+"/objects/2"); code != 200 {
		t.Fatalf("bare-number status %d", code)
	}
	if code, _ := get(t, s, s.URL+"/objects/999999"); code != 404 {
		t.Fatalf("unknown object status %d", code)
	}
	if code, _ := get(t, s, s.URL+"/objects/xyz"); code != 400 {
		t.Fatalf("malformed oid status %d", code)
	}
}

func TestSeriesAndPprofEndpoints(t *testing.T) {
	cl, s := newServedCluster(t)
	cl.Sample()
	code, body := get(t, s, s.URL+"/series")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	st, err := obs.ReadStream(strings.NewReader(body))
	samples := st.Samples
	if err != nil || len(samples) == 0 {
		t.Fatalf("series: %v, %d samples", err, len(samples))
	}
	if code, body := get(t, s, s.URL+"/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("pprof cmdline status %d", code)
	}
	if code, _ := get(t, s, s.URL+"/nope"); code != 404 {
		t.Fatalf("unknown path status %d", code)
	}
}

func TestHeatEndpointServesRows(t *testing.T) {
	cl, s := newServedCluster(t)
	code, body := get(t, s, s.URL+"/heat")
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	st, err := obs.ReadStream(strings.NewReader(body))
	if err != nil {
		t.Fatalf("/heat is not a parseable telemetry stream: %v", err)
	}
	if len(st.Heat) == 0 || len(st.Heat) != len(cl.Heat()) {
		t.Fatalf("/heat served %d rows, the cluster holds %d", len(st.Heat), len(cl.Heat()))
	}
	if len(st.Events)+len(st.Samples)+len(st.Hists) != 0 {
		t.Fatal("/heat served records of another kind")
	}
}
