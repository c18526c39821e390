package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// SetupReps is how many times a timed run builds its workload; setup_s is
// the median, and the last build is the one the loop runs on.
const SetupReps = 7

// Outcome is one run of one workload: its metrics and its correctness
// verdict. Attempted and Failed count mutator ops of the measured loop plus
// objects of the final audit.
type Outcome struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	Metrics   Values   `json:"metrics"`
}

func (o *Outcome) errorf(format string, args ...any) {
	o.Errors = append(o.Errors, fmt.Sprintf(format, args...))
}

// absorb folds one loop into the verdict.
func (o *Outcome) absorb(what string, res *LoopResult) {
	o.Attempted += res.Ops
	o.Failed += res.Failed
	if res.Failed > 0 {
		o.errorf("%s: %d of %d ops failed, first: %s", what, res.Failed, res.Ops, res.FirstError)
	}
}

// verify runs the checks that close every workload: the final audit, the
// paper's §5 probe, and on a collecting, persistent workload that garbage
// was found and the log was forced. dead and syncs are totals since set-up.
func (o *Outcome) verify(env *Env, dead int, syncs uint64) {
	checked, failures := env.Audit()
	o.Attempted += checked
	o.Failed += len(failures)
	if len(failures) > 0 {
		o.errorf("%d of %d rooted objects failed the audit, first: %s", len(failures), checked, failures[0])
	}
	if n := env.CollectorAcquires(); n != 0 {
		o.errorf("the collector acquired tokens or caused invalidations %d times; the paper's claim is 0", n)
	}
	if env.W.CollectEvery > 0 && dead == 0 {
		o.errorf("no collection reported a dead object")
	}
	if env.W.Persist {
		if got := env.StoreSyncs(); got < int64(syncs) {
			o.errorf("the stores saw %d syncs for %d Node.Sync calls", got, syncs)
		}
	}
	o.Correct = len(o.Errors) == 0
}

// settle returns freed memory to the OS so one build's garbage is not in
// the next one's resident set.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// RunTimed is the untraced run: build the workload SetupReps times, warm
// up, issue ops for box, check, and report the end-to-end metrics.
func RunTimed(w Workload, seed int64, box time.Duration, tmpRoot string) (*Outcome, error) {
	out := &Outcome{Workload: w.Name, Seed: seed}
	var env *Env
	var setups []time.Duration
	for i := 0; i < SetupReps; i++ {
		if env != nil {
			env.Close()
			env = nil
			settle()
		}
		start := time.Now()
		e, err := Setup(w, seed, false, tmpRoot)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
		env = e
	}
	defer env.Close()

	warm := env.Run(0, w.WarmupOps, nil)
	if warm.Failed > 0 {
		out.errorf("warm-up: %d ops failed, first: %s", warm.Failed, warm.FirstError)
	}
	settle()
	res := env.Run(box, 0, nil)
	out.absorb("timed loop", res)
	out.verify(env, warm.DeadSeen+res.DeadSeen, warm.NodeSync.N()+res.NodeSync.N())

	var err error
	out.Metrics, err = EndToEnd(w, res, setups)
	return out, err
}

// RunTraced is the per-layer run: a fixed prefix of the stream is replayed
// twice on identically built clusters, once untraced (the twin, which gives
// the tracing overhead and the allocation figures) and once with spans and
// decorators on. The spans and the counter deltas go to traceDir.
func RunTraced(w Workload, seed int64, tmpRoot, traceDir string) (*Outcome, error) {
	out := &Outcome{Workload: w.Name, Seed: seed}

	pass := func(traced bool, tr *Tracer) (*Env, *LoopResult, *LoopResult, error) {
		env, err := Setup(w, seed, traced, tmpRoot)
		if err != nil {
			return nil, nil, nil, err
		}
		warm := env.Run(0, w.WarmupOps, nil)
		if warm.Failed > 0 {
			out.errorf("warm-up: %d ops failed, first: %s", warm.Failed, warm.FirstError)
		}
		settle()
		return env, warm, env.Run(0, w.TracedOps, tr), nil
	}

	env, _, twin, err := pass(false, nil)
	if err != nil {
		return nil, err
	}
	env.Close()
	out.absorb("untraced twin", twin)
	settle()

	tr := NewTracer(w.TracedOps*8 + 1<<16)
	env, warm, traced, err := pass(true, tr)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	out.absorb("traced loop", traced)
	out.Metrics = PerLayer(env, twin, traced, tr)
	// The shadow model may never call an acquire remote that sent nothing.
	// The reverse happens only where collections run, and must stay rare.
	remote := int(traced.AcqRemoteRead.N() + traced.AcqRemoteWrite.N())
	if wrong := traced.RemoteMismatch - traced.ReplicaLost; wrong > 0 {
		out.errorf("the shadow token model called %d acquires remote that sent no message", wrong)
	}
	if lost := traced.ReplicaLost; lost > 0 && (w.CollectEvery == 0 || lost*20 > remote) {
		out.errorf("%d acquires the shadow token model called local left the node (%d remote acquires)", lost, remote)
	}
	out.verify(env, warm.DeadSeen+traced.DeadSeen, warm.NodeSync.N()+traced.NodeSync.N())

	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(traceDir, w.Name+".trace.ndjson"))
	if err != nil {
		return nil, err
	}
	err = tr.WriteNDJSON(f, traceHeader{
		Workload: w.Name, Seed: seed, Ops: traced.Ops,
		StreamHash: fmt.Sprintf("%016x", env.Stream.Hash()), Counters: traced.Counters,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return out, err
}
