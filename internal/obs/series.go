package obs

import (
	"encoding/json"
	"io"
	"slices"
	"sync"
)

// Sample is one time-series point: the counter activity since the previous
// sample and the cumulative distribution of every registered histogram at
// sample time. Counter deltas are zero-suppressed — a counter that did not
// move between two samples does not appear.
type Sample struct {
	Seq   int    `json:"seq"`
	Tick  uint64 `json:"tick"`
	DTick uint64 `json:"dtick"` // simulated ticks elapsed since the previous sample
	// Deltas holds per-counter increments since the previous sample.
	Deltas map[string]int64 `json:"deltas,omitempty"`
	// Hists holds the cumulative summary of each histogram at sample time;
	// the trajectory of these summaries across samples is the bench series.
	Hists map[string]HistSummary `json:"hists,omitempty"`
}

// Sampler snapshots per-tick deltas of every counter and every registered
// histogram into a bounded ring — the readout half of the flight recorder:
// where the event window answers "in what order", the series answers "at
// what rate, converging to what". It is concurrency-safe against mutators
// observing histograms and bumping counters while a sample is cut.
type Sampler struct {
	mu sync.Mutex

	counters func() map[string]int64 // counter snapshot source (e.g. Stats.Snapshot)
	obs      *Observer               // histogram registry; may be nil

	capacity int
	ring     []Sample
	start    int
	n        int

	prev     map[string]int64
	prevTick uint64
	seq      int
}

// DefaultSeriesCap bounds the sample ring when the caller passes no
// capacity: at one sample per driver round this retains hours of soak.
const DefaultSeriesCap = 4096

// NewSampler creates a sampler reading counters from the given snapshot
// function and histograms from o (nil disables histogram sampling). A
// non-positive capacity selects DefaultSeriesCap; when the ring is full the
// oldest samples are dropped, flight-recorder style.
func NewSampler(capacity int, counters func() map[string]int64, o *Observer) *Sampler {
	if capacity <= 0 {
		capacity = DefaultSeriesCap
	}
	return &Sampler{
		counters: counters,
		obs:      o,
		capacity: capacity,
		ring:     make([]Sample, 0, min(capacity, 1024)),
		prev:     make(map[string]int64),
	}
}

// Sample cuts one time-series point at the given simulated tick and appends
// it to the ring, returning the point.
func (s *Sampler) Sample(tick uint64) Sample {
	if s == nil {
		return Sample{}
	}
	cur := s.counters()

	s.mu.Lock()
	defer s.mu.Unlock()
	p := Sample{Seq: s.seq, Tick: tick}
	if s.seq > 0 && tick >= s.prevTick {
		p.DTick = tick - s.prevTick
	}
	for k, v := range cur {
		if d := v - s.prev[k]; d != 0 {
			if p.Deltas == nil {
				p.Deltas = make(map[string]int64)
			}
			p.Deltas[k] = d
		}
	}
	if s.obs != nil {
		for _, h := range s.obs.Histograms() {
			sum := h.Summary()
			if sum.Count == 0 {
				continue
			}
			if p.Hists == nil {
				p.Hists = make(map[string]HistSummary)
			}
			p.Hists[h.Name()] = sum
		}
	}
	s.prev = cur
	s.prevTick = tick
	s.seq++
	s.push(p)
	return p
}

func (s *Sampler) push(p Sample) {
	if s.n < s.capacity {
		if len(s.ring) < s.capacity {
			s.ring = append(s.ring, p)
		} else {
			s.ring[(s.start+s.n)%s.capacity] = p
		}
		s.n++
		return
	}
	s.ring[s.start] = p
	s.start = (s.start + 1) % s.capacity
}

// Len returns the number of retained samples.
func (s *Sampler) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Samples returns the retained window, oldest first.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, 0, s.n)
	for i := 0; i < s.n; i++ {
		out = append(out, s.ring[(s.start+i)%len(s.ring)])
	}
	return out
}

// WriteNDJSON writes the retained samples as newline-delimited JSON, one
// sample per line — the same greppable shape as the event dump.
func (s *Sampler) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, p := range s.Samples() {
		if err := enc.Encode(p); err != nil {
			return err
		}
	}
	return nil
}

// ReadSamplesNDJSON parses a series NDJSON stream back into samples
// (bmxstat's input path).
func ReadSamplesNDJSON(r io.Reader) ([]Sample, error) {
	dec := json.NewDecoder(r)
	var out []Sample
	for dec.More() {
		var p Sample
		if err := dec.Decode(&p); err != nil {
			return out, err
		}
		out = append(out, p)
	}
	return out, nil
}

// QuantileSeries is the trajectory of one histogram's quantiles across the
// retained samples, plus its final cumulative summary.
type QuantileSeries struct {
	Ticks []uint64    `json:"ticks"`
	P50   []int64     `json:"p50"`
	P95   []int64     `json:"p95"`
	P99   []int64     `json:"p99"`
	Final HistSummary `json:"final"`
}

// BenchSummary is the per-run benchmark artifact (BENCH_<pr>.json): the
// quantile trajectories of every histogram, the final counter totals, and
// the paper-facing derived figures.
type BenchSummary struct {
	Samples int                       `json:"samples"`
	Ticks   uint64                    `json:"ticks"`
	Series  map[string]QuantileSeries `json:"series"`
	// Counters holds the cumulative totals over the sampled window.
	Counters map[string]int64 `json:"counters,omitempty"`
	// MsgsPerMutatorOp is total messages sent per application token
	// acquire — the paper's §6 "GC adds no messages" claim made a ratio.
	MsgsPerMutatorOp float64 `json:"msgs_per_mutator_op"`
	GCCopyWords      int64   `json:"gc_copy_words"`
	GCScanObjects    int64   `json:"gc_scan_objects"`
	// StoreSyncs and the two per-collection ratios are the §8 durability
	// figures: group commit's whole point is one log force per flip, so
	// syncs-per-flip ≈ 1 under group commit and rises with per-transaction
	// commit; log bytes per collection sizes the flip's durable transcript.
	StoreSyncs            int64   `json:"store_syncs"`
	SyncsPerFlip          float64 `json:"syncs_per_flip"`
	LogBytesPerCollection float64 `json:"log_bytes_per_collection"`
	// RemoteAccessRatio is the fraction of token acquires that left the
	// requesting node (travelled the owner chain): the locality figure
	// placement optimizes. OwnerMismatchCount is how many objects ended the
	// run owned by a node other than their dominant writer — the heat
	// table's migration-advice list, sized (filled by the driver from the
	// merged heat rows; BenchOf leaves it zero without them).
	RemoteAccessRatio  float64 `json:"remote_access_ratio"`
	OwnerMismatchCount int64   `json:"owner_mismatch_count"`
}

// Bench condenses the retained window into the benchmark artifact.
func (s *Sampler) Bench() BenchSummary {
	return BenchOf(s.Samples())
}

// BenchOf condenses an already-loaded sample series (bmxstat's diff mode
// reads two of these from disk).
func BenchOf(samples []Sample) BenchSummary {
	b := BenchSummary{
		Samples: len(samples),
		Series:  make(map[string]QuantileSeries),
	}
	if len(samples) == 0 {
		return b
	}
	b.Ticks = samples[len(samples)-1].Tick
	b.Counters = make(map[string]int64)
	names := map[string]bool{}
	for _, p := range samples {
		for k, d := range p.Deltas {
			b.Counters[k] += d
		}
		for name := range p.Hists {
			names[name] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	slices.Sort(sorted)
	for _, name := range sorted {
		var qs QuantileSeries
		for _, p := range samples {
			h, ok := p.Hists[name]
			if !ok {
				continue
			}
			qs.Ticks = append(qs.Ticks, p.Tick)
			qs.P50 = append(qs.P50, h.P50)
			qs.P95 = append(qs.P95, h.P95)
			qs.P99 = append(qs.P99, h.P99)
			qs.Final = h
		}
		b.Series[name] = qs
	}
	ops := b.Counters["dsm.acquire.r.app"] + b.Counters["dsm.acquire.w.app"]
	msgs := b.Counters["msg.sent.app"] + b.Counters["msg.sent.gc"]
	if ops > 0 {
		b.MsgsPerMutatorOp = float64(msgs) / float64(ops)
	}
	if h, ok := b.Series["gc.copy.words"]; ok {
		b.GCCopyWords = h.Final.Sum
	}
	if h, ok := b.Series["gc.scan.objects"]; ok {
		b.GCScanObjects = h.Final.Sum
	}
	b.StoreSyncs = b.Counters["store.syncs"]
	if runs := b.Counters["core.gc.runs"]; runs > 0 {
		b.SyncsPerFlip = float64(b.StoreSyncs) / float64(runs)
		b.LogBytesPerCollection = float64(b.Counters["rvm.log.bytes"]) / float64(runs)
	}
	if tot := b.Counters["dsm.acquire.local"] + b.Counters["dsm.acquire.remote"]; tot > 0 {
		b.RemoteAccessRatio = float64(b.Counters["dsm.acquire.remote"]) / float64(tot)
	}
	return b
}
