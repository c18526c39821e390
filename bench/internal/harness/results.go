package harness

import (
	"encoding/json"
	"fmt"
	"os"
)

// ResultMetric is a value in a results file. End-to-end metrics carry their
// direction and bound (0: reported, held to none), so that bench/compare
// needs nothing but the files. A file of medians (bench/compare -median) also
// carries the quartiles of the runs it was made from.
type ResultMetric struct {
	Value
	Better string   `json:"better,omitempty"`
	Bound  float64  `json:"bound,omitempty"`
	Q1     *float64 `json:"q1,omitempty"`
	Q3     *float64 `json:"q3,omitempty"`
}

// WorkloadResult is one workload's entry in a results file.
type WorkloadResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	EndToEnd  map[string]ResultMetric `json:"end_to_end,omitempty"`
	PerLayer  map[string]ResultMetric `json:"per_layer,omitempty"`
}

// Results is the schema of out/results.json and of baseline/HEAD.json.
type Results struct {
	Machine   map[string]any            `json:"machine"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Runs      int                       `json:"runs,omitempty"` // files behind a file of medians
	Workloads map[string]WorkloadResult `json:"workloads"`
	Probes    map[string]ResultMetric   `json:"probes,omitempty"`
}

// Add files one run's outcome under its workload: probes apart (they do not
// depend on the workload), end-to-end metrics with their bounds, per-layer
// metrics as they are. A workload's traced run measures its workload-specific
// end-to-end metrics too, on its untraced twin; the timed run's are kept.
func (r *Results) Add(res *Outcome) {
	wr := r.Workloads[res.Workload]
	wr.Correct = res.Correct && (wr.Correct || wr.Attempted == 0)
	wr.Attempted += res.Attempted
	wr.Failed += res.Failed
	put := func(m *map[string]ResultMetric, name string, v ResultMetric) {
		if *m == nil {
			*m = map[string]ResultMetric{}
		}
		(*m)[name] = v
	}
	for name, value := range res.Metrics {
		m, _ := Find(name)
		v := ResultMetric{Value: value}
		switch {
		case m.Probe:
			put(&r.Probes, name, v)
		case m.EndToEnd():
			if _, dup := wr.EndToEnd[name]; !dup {
				v.Better, v.Bound = m.Better, m.BoundOn(res.Workload)
				put(&wr.EndToEnd, name, v)
			}
		default:
			put(&wr.PerLayer, name, v)
		}
	}
	if r.Workloads == nil {
		r.Workloads = map[string]WorkloadResult{}
	}
	r.Workloads[res.Workload] = wr
}

// WriteJSON writes v to path, indented.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadJSON reads path into v.
func ReadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
