// Package introspect is the live readout of a running cluster: a small HTTP
// server exposing Prometheus-text /metrics, the Go pprof endpoints, the
// flight-recorder event window, and per-object biographies. It depends only
// on obs — the counter source is a plain snapshot function, so the package
// stays out of the transport/cluster dependency chain and any process that
// can produce a counter map can serve metrics.
package introspect

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"bmx/internal/addr"
	"bmx/internal/obs"
	"bmx/internal/obs/heat"
)

// Server bundles the handler sources. All fields are optional except
// Counters; nil sources serve empty (not erroring) endpoints so a partially
// wired process still introspects.
type Server struct {
	Counters func() map[string]int64
	Observer *obs.Observer
	Sampler  *obs.Sampler
	// Heat returns the access-locality rows (Cluster.Heat: the nodes'
	// tables merged); nil or no rows serves an empty /heat and no locality
	// gauges.
	Heat func() []heat.Row
}

// Handler builds the route table. Exposed separately from Serve so tests
// (and embedders) can drive it through httptest.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.index)
	mux.HandleFunc("/metrics", s.metrics)
	mux.HandleFunc("/events", s.events)
	mux.HandleFunc("/objects/", s.object)
	mux.HandleFunc("/series", s.series)
	mux.HandleFunc("/spans", s.spans)
	mux.HandleFunc("/heat", s.heat)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve listens on lnAddr (e.g. ":8080" or "127.0.0.1:0") and serves until
// the process exits. It returns the bound listener address, so callers using
// port 0 learn the real port.
func (s *Server) Serve(lnAddr string) (string, error) {
	ln, err := net.Listen("tcp", lnAddr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}

func (s *Server) index(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, `bmx introspection
  /metrics          Prometheus text exposition (counters + histograms + gauges)
  /events           flight-recorder window as NDJSON (?oid=36 to filter)
  /objects/<oid>    object biography as JSON (accepts 36 or O36)
  /series           time-series sampler window as NDJSON
  /spans            span begin/end events from the retained window as NDJSON
  /heat             access-locality heat table as NDJSON (bmxstat -heat merges these)
  /debug/pprof/     Go runtime profiles
`)
}

func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	var counters map[string]int64
	if s.Counters != nil {
		counters = s.Counters()
	}
	var hists []obs.HistSnapshot
	if s.Observer != nil {
		for _, h := range s.Observer.Histograms() {
			if snap := h.Snapshot(); snap.Count > 0 {
				hists = append(hists, snap)
			}
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WritePromGauges(w, runtimeGauges())
	if gs := s.localityGauges(); len(gs) > 0 {
		obs.WritePromGauges(w, gs)
	}
	obs.WritePromText(w, counters, hists)
}

// localityGauges condenses the heat table into the bmx_locality_* family:
// the cluster-wide remote-access ratio, the tracked-object count, and the
// size of the owner-mismatch (migration advice) list.
func (s *Server) localityGauges() []obs.PromGauge {
	if s.Heat == nil {
		return nil
	}
	rows := s.Heat()
	if len(rows) == 0 {
		return nil
	}
	rep := heat.Analyze(rows)
	return []obs.PromGauge{
		{Name: "locality.remote.ratio", Help: "Fraction of token acquires that travelled the owner chain.",
			Value: rep.RemoteRatio},
		{Name: "locality.tracked.objects", Help: "Objects with at least one heat cell.",
			Value: float64(rep.TrackedObjects)},
		{Name: "locality.owner.mismatches", Help: "Objects whose dominant writer is not their current owner.",
			Value: float64(len(rep.Mismatches))},
		{Name: "locality.wasted.hops", Help: "Total ownerPtr forwards paid by remote acquires.",
			Value: float64(rep.WastedHops)},
	}
}

// heat serves the current heat table as NDJSON rows — the same wire shape
// bmxd appends to trace files, so `curl /heat` output feeds straight into
// `bmxstat -heat -trace`.
func (s *Server) heat(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if s.Heat == nil {
		return
	}
	heat.WriteRowsNDJSON(w, s.Heat())
}

// runtimeGauges reports the process's build identity and Go runtime health
// alongside the protocol metrics, so a scrape alone answers "what build is
// this and is the process itself sound".
func runtimeGauges() []obs.PromGauge {
	goVersion, module := runtime.Version(), "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Path != "" {
		module = bi.Main.Path
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return []obs.PromGauge{
		{Name: "build.info", Help: "Build identity (constant 1, labels carry the data).",
			Labels: map[string]string{"go_version": goVersion, "module": module}, Value: 1},
		{Name: "goroutines", Help: "Current number of goroutines.",
			Value: float64(runtime.NumGoroutine())},
		{Name: "heap.alloc.bytes", Help: "Bytes of allocated heap objects.",
			Value: float64(ms.HeapAlloc)},
		{Name: "heap.objects", Help: "Number of allocated heap objects.",
			Value: float64(ms.HeapObjects)},
	}
}

// spans serves the span begin/end events of the retained window as NDJSON —
// the live form of what `bmxstat -spans` stitches offline across processes.
func (s *Server) spans(w http.ResponseWriter, _ *http.Request) {
	var spans []obs.Event
	if s.Observer != nil {
		for _, e := range s.Observer.Events() {
			if e.Kind == obs.KSpanBegin || e.Kind == obs.KSpanEnd {
				spans = append(spans, e)
			}
		}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	obs.DumpJSON(w, spans)
}

func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	var evs []obs.Event
	if s.Observer != nil {
		evs = s.Observer.Events()
	}
	if q := r.URL.Query().Get("oid"); q != "" {
		oid, err := ParseOID(q)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		kept := evs[:0:0]
		for _, e := range evs {
			if e.OID == oid {
				kept = append(kept, e)
			}
		}
		evs = kept
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	obs.DumpJSON(w, evs)
}

// bioJSON is the wire shape of /objects/<oid>.
type bioJSON struct {
	OID     string     `json:"oid"`
	Owners  []string   `json:"owners"`
	Trail   []string   `json:"trail,omitempty"`
	Cycle   []string   `json:"cycle,omitempty"`
	Entries []bioEntry `json:"entries"`
}

type bioEntry struct {
	Seq  uint64 `json:"seq"`
	Tick uint64 `json:"tick"`
	Node string `json:"node"`
	Kind string `json:"kind"`
	What string `json:"what"`
}

func nodeNames(ids []addr.NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = id.String()
	}
	return out
}

// BioJSON renders a biography in the /objects wire shape (shared with
// bmxstat's -json mode).
func BioJSON(bio obs.Biography) any {
	j := bioJSON{
		OID:    bio.OID.String(),
		Owners: nodeNames(bio.Owners),
		Trail:  nodeNames(bio.Trail),
		Cycle:  nodeNames(bio.Cycle),
	}
	if j.Owners == nil {
		j.Owners = []string{}
	}
	for _, en := range bio.Entries {
		j.Entries = append(j.Entries, bioEntry{
			Seq: en.Event.Seq, Tick: en.Event.Tick,
			Node: en.Event.Node.String(), Kind: en.Event.Kind.String(),
			What: en.What,
		})
	}
	return j
}

func (s *Server) object(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(r.URL.Path, "/objects/")
	oid, err := ParseOID(raw)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var evs []obs.Event
	if s.Observer != nil {
		evs = s.Observer.Events()
	}
	bio := obs.BiographyOf(evs, oid)
	if len(bio.Entries) == 0 {
		http.Error(w, fmt.Sprintf("no events for %v in the retained window", oid), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(BioJSON(bio))
}

func (s *Server) series(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if s.Sampler != nil {
		s.Sampler.WriteNDJSON(w)
	}
}

// ParseOID accepts both the bare number ("36") and the rendered form
// ("O36").
func ParseOID(s string) (addr.OID, error) {
	t := strings.TrimPrefix(strings.TrimSpace(s), "O")
	n, err := strconv.ParseUint(t, 10, 64)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("bad oid %q (want 36 or O36)", s)
	}
	return addr.OID(n), nil
}
