package harness

import (
	"fmt"
	"slices"
)

// Metric describes one number the benchmark reports. The catalogue below is
// the single list of names: BENCHMARK.json is checked against it by test,
// and a run that produces a name outside it, or misses one it owes, fails.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"

	// End-to-end metrics only: the share of the base's median by which the
	// metric may worsen before bench/compare calls it regressed.
	Bound float64
	// Gated marks the end-to-end metrics every workload reports. They are
	// BENCHMARK.json's end_to_end list: the driver holds them to Bound.
	Gated bool
	// Workloads lists where an end-to-end metric exists; nil means all.
	// Elsewhere it is left out of results, never reported as 0.
	Workloads []string

	// Informational lists the workloads on which the metric is reported
	// but held to no bound: the calibration runs showed it spreading from
	// run to run by more than its bound there (see README, calibration).
	Informational []string

	// MinSamples, when set, is how many samples the metric needs to be
	// reported at all (a p99 wants ten samples beyond it); with fewer it is
	// left out.
	MinSamples uint64

	// Layer is the module a per-layer metric belongs to ("" for end-to-end).
	Layer string
	// Probe marks per-layer metrics measured by a fixed-iteration loop on a
	// minimal fixture; the rest come from the workload's own traced run.
	Probe bool
}

// EndToEnd reports whether m is an end-to-end metric.
func (m Metric) EndToEnd() bool { return m.Layer == "" }

// On reports whether end-to-end metric m exists on workload w.
func (m Metric) On(w string) bool { return m.Workloads == nil || slices.Contains(m.Workloads, w) }

// BoundOn is the bound end-to-end metric m is held to on workload w, 0 where
// it is informational.
func (m Metric) BoundOn(w string) float64 {
	if slices.Contains(m.Informational, w) {
		return 0
	}
	return m.Bound
}

var (
	remoteWorkloads = []string{"shared_sim", "shared_tcp", "gc_persist"}
	gcWorkloads     = []string{"gc_persist"}
)

// Catalogue lists every metric, end-to-end first.
var Catalogue = []Metric{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Gated: true},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.20, Gated: true},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "acq_remote_read_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Workloads: remoteWorkloads,
		Informational: []string{"shared_tcp"}},
	{Name: "acq_remote_write_p50_us", Unit: "us", Better: "lower", Bound: 0.10, Workloads: remoteWorkloads,
		Informational: remoteWorkloads},
	{Name: "acq_remote_p99_us", Unit: "us", Better: "lower", Bound: 0.20, Workloads: remoteWorkloads, MinSamples: 1000,
		Informational: []string{"shared_tcp", "gc_persist"}},
	{Name: "gc_collect_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15, Workloads: gcWorkloads},
	{Name: "gc_share", Unit: "ratio", Better: "lower", Bound: 0.15, Workloads: gcWorkloads},

	{Layer: "cluster", Name: "cluster.read_word_ns", Unit: "ns", Better: "lower", Probe: true},
	{Layer: "cluster", Name: "cluster.write_word_ns", Unit: "ns", Better: "lower", Probe: true},
	{Layer: "cluster", Name: "cluster.write_ref_intra_ns", Unit: "ns", Better: "lower", Probe: true},
	{Layer: "cluster", Name: "cluster.acquire_cached_ns", Unit: "ns", Better: "lower", Probe: true},
	{Layer: "cluster", Name: "cluster.release_ns", Unit: "ns", Better: "lower", Probe: true},
	{Layer: "cluster", Name: "cluster.alloc_ns", Unit: "ns", Better: "lower", Probe: true},
	{Layer: "cluster", Name: "cluster.read_word_allocs", Unit: "count", Better: "lower", Probe: true},
	{Layer: "cluster", Name: "cluster.write_word_allocs", Unit: "count", Better: "lower", Probe: true},
	{Layer: "cluster", Name: "cluster.parallel_speedup_2", Unit: "ratio", Better: "higher", Probe: true},
	{Layer: "cluster", Name: "cluster.self_us_per_op", Unit: "us", Better: "lower"},

	{Layer: "ssp", Name: "ssp.write_ref_inter_ns", Unit: "ns", Better: "lower", Probe: true},

	{Layer: "dsm", Name: "dsm.remote_acquires_per_op", Unit: "ratio", Better: "lower"},
	{Layer: "dsm", Name: "dsm.hops_per_remote_acquire", Unit: "ratio", Better: "lower"},
	{Layer: "dsm", Name: "dsm.invalidations_per_write", Unit: "ratio", Better: "lower"},
	{Layer: "dsm", Name: "dsm.msgs_per_op", Unit: "ratio", Better: "lower"},
	{Layer: "dsm", Name: "dsm.rmr_per_op", Unit: "ratio", Better: "lower"},
	{Layer: "dsm", Name: "dsm.piggyback_bytes_per_op", Unit: "B", Better: "lower"},
	{Layer: "dsm", Name: "dsm.reroutes", Unit: "count", Better: "lower"},
	{Layer: "dsm", Name: "dsm.requester_self_us", Unit: "us", Better: "lower"},
	{Layer: "dsm", Name: "dsm.handler_self_us.acquire", Unit: "us", Better: "lower"},
	{Layer: "dsm", Name: "dsm.handler_self_us.invalidate", Unit: "us", Better: "lower"},
	{Layer: "dsm", Name: "dsm.ping_pong_us", Unit: "us", Better: "lower", Probe: true},

	{Layer: "transport", Name: "transport.stats_add_ns", Unit: "ns", Better: "lower", Probe: true},
	{Layer: "transport", Name: "transport.stats_add_contended_ns", Unit: "ns", Better: "lower", Probe: true},
	{Layer: "transport", Name: "transport.counter_names", Unit: "count", Better: "lower"},

	{Layer: "simnet", Name: "simnet.call_ns", Unit: "ns", Better: "lower", Probe: true},
	{Layer: "simnet", Name: "simnet.call_allocs", Unit: "count", Better: "lower", Probe: true},
	{Layer: "simnet", Name: "simnet.send_step_ns", Unit: "ns", Better: "lower", Probe: true},
	{Layer: "simnet", Name: "simnet.drain_us_per_msg", Unit: "us", Better: "lower"},

	{Layer: "tcp", Name: "tcp.call_rtt_p50_us.nil", Unit: "us", Better: "lower", Probe: true},
	{Layer: "tcp", Name: "tcp.call_rtt_p50_us.words64", Unit: "us", Better: "lower", Probe: true},
	{Layer: "tcp", Name: "tcp.call_rtt_p50_us.locbatch8", Unit: "us", Better: "lower", Probe: true},
	{Layer: "tcp", Name: "tcp.call_rtt_p99_us.nil", Unit: "us", Better: "lower", Probe: true},
	{Layer: "tcp", Name: "tcp.payload_cost_us", Unit: "us", Better: "lower", Probe: true},
	{Layer: "tcp", Name: "tcp.call_allocs", Unit: "count", Better: "lower", Probe: true},
	{Layer: "tcp", Name: "tcp.send_msgs_per_s", Unit: "1/s", Better: "higher", Probe: true},
	{Layer: "tcp", Name: "tcp.mesh_ready_ms", Unit: "ms", Better: "lower", Probe: true},
	{Layer: "tcp", Name: "tcp.msgs_per_op", Unit: "ratio", Better: "lower"},

	{Layer: "core", Name: "core.bgc_us_per_live_obj", Unit: "us", Better: "lower"},
	{Layer: "core", Name: "core.bgc_copied_words_per_collect", Unit: "count", Better: "lower"},
	{Layer: "core", Name: "core.bgc_scanned_words_per_collect", Unit: "count", Better: "lower"},
	{Layer: "core", Name: "core.bgc_self_ms", Unit: "ms", Better: "lower"},
	{Layer: "core", Name: "core.ggc_ms_p50", Unit: "ms", Better: "lower"},
	{Layer: "core", Name: "core.reclaim_ms_p50", Unit: "ms", Better: "lower"},
	{Layer: "core", Name: "core.gc_msgs_per_collect", Unit: "ratio", Better: "lower"},
	{Layer: "core", Name: "core.bgc_steady_us_per_obj", Unit: "us", Better: "lower", Probe: true},
	{Layer: "core", Name: "core.bgc_allocs_per_obj", Unit: "ratio", Better: "lower", Probe: true},
	{Layer: "core", Name: "core.collector_acquires", Unit: "count", Better: "lower"},

	{Layer: "rvm", Name: "rvm.sync_self_us", Unit: "us", Better: "lower"},
	{Layer: "rvm", Name: "rvm.log_bytes_per_op", Unit: "B", Better: "lower"},
	{Layer: "rvm", Name: "rvm.checkpoint_ms", Unit: "ms", Better: "lower", Probe: true},
	{Layer: "rvm", Name: "rvm.recover_ms", Unit: "ms", Better: "lower", Probe: true},

	{Layer: "store", Name: "store.sync_p50_us", Unit: "us", Better: "lower"},
	{Layer: "store", Name: "store.sync_p99_us", Unit: "us", Better: "lower"},
	{Layer: "store", Name: "store.syncs_per_op", Unit: "ratio", Better: "lower"},
	{Layer: "store", Name: "store.bytes_written_per_op", Unit: "B", Better: "lower"},
	{Layer: "store", Name: "store.write_amp", Unit: "ratio", Better: "lower"},
	{Layer: "store", Name: "store.mem_sync_us", Unit: "us", Better: "lower", Probe: true},
	{Layer: "store", Name: "store.flatfs_sync_us", Unit: "us", Better: "lower", Probe: true},
	{Layer: "store", Name: "store.lsm_sync_us", Unit: "us", Better: "lower", Probe: true},

	{Layer: "obs", Name: "obs.tracing_on_ratio", Unit: "ratio", Better: "higher", Probe: true},
	{Layer: "heat", Name: "heat.enabled_ratio", Unit: "ratio", Better: "higher", Probe: true},

	{Layer: "harness", Name: "harness.allocs_per_op", Unit: "ratio", Better: "lower"},
	{Layer: "harness", Name: "harness.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Layer: "harness", Name: "harness.go_gc_pause_ms", Unit: "ms", Better: "lower"},
	{Layer: "harness", Name: "harness.op_p99_us", Unit: "us", Better: "lower"},
	{Layer: "harness", Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
	{Layer: "harness", Name: "harness.remote_class_mismatch", Unit: "count", Better: "lower"},
	{Layer: "harness", Name: "harness.calib_mops", Unit: "1/us", Better: "higher", Probe: true},
	{Layer: "harness", Name: "harness.clock_ns", Unit: "ns", Better: "lower", Probe: true},
}

// Value is one measured metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     uint64  `json:"n"` // samples behind the value
}

// Values collects the metrics of one run, keyed by catalogue name.
type Values map[string]Value

// Set records name, taking the unit from the catalogue. A name outside the
// catalogue is a bug in the benchmark and panics.
func (v Values) Set(name string, value float64, n uint64) {
	m, ok := Find(name)
	if !ok {
		panic(fmt.Sprintf("metric %q is not in the catalogue", name))
	}
	v[name] = Value{Value: value, Unit: m.Unit, N: n}
}

// Find looks a metric up by name.
func Find(name string) (Metric, bool) {
	for _, m := range Catalogue {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// CheckEndToEnd verifies that v holds exactly the end-to-end metrics workload
// w owes: none missing, none zero, none that belongs elsewhere.
func CheckEndToEnd(w string, v Values) error {
	for _, m := range Catalogue {
		if !m.EndToEnd() {
			continue
		}
		got, ok := v[m.Name]
		switch {
		case m.On(w) && !ok && m.MinSamples > 0:
			// too few samples this run
		case m.On(w) && !ok:
			return fmt.Errorf("%s: end-to-end metric %s was not measured", w, m.Name)
		case m.On(w) && got.Value == 0:
			return fmt.Errorf("%s: end-to-end metric %s reads 0", w, m.Name)
		case !m.On(w) && ok:
			return fmt.Errorf("%s: metric %s does not exist on this workload", w, m.Name)
		}
	}
	return nil
}

// CheckPerLayer verifies that v holds every per-layer metric (probes only
// when they were run).
func CheckPerLayer(w string, v Values, probes bool) error {
	for _, m := range Catalogue {
		if m.EndToEnd() || (m.Probe && !probes) {
			continue
		}
		if _, ok := v[m.Name]; !ok {
			return fmt.Errorf("%s: per-layer metric %s was not measured", w, m.Name)
		}
	}
	return nil
}
