package probe

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bmx"
	"bmx/bench/internal/harness"
	"bmx/internal/store"
	"bmx/internal/trace"
)

// listObjs is the size of the collector and recovery fixtures.
const listObjs = 2000

// coreProbes time the bunch collector in its steady state: one node, no
// store, a live list that every collection traces and copies again
// (BenchmarkBGCSteadyState's shape).
func coreProbes(v harness.Values, _ string) error {
	const collections = 5
	n := bmx.New(bmx.Config{Nodes: 1, SegWords: 4096}).Node(0)
	b := n.NewBunch()
	if _, err := trace.BuildList(n, b, listObjs); err != nil {
		return wrap("core fixture", err)
	}
	collect := func(k int) error {
		for i := 0; i < k; i++ {
			if st := n.CollectBunch(b); st.LiveStrong+st.LiveWeak != listObjs {
				return fmt.Errorf("collection found %d live objects of %d", st.LiveStrong+st.LiveWeak, listObjs)
			}
		}
		return nil
	}
	ns, err := perIter(collections, nil, collect)
	if err != nil {
		return wrap("core.bgc_steady_us_per_obj", err)
	}
	v.Set("core.bgc_steady_us_per_obj", ns/1e3/listObjs, Reps)
	allocs, err := allocsPerIter(collections, collect)
	if err != nil {
		return wrap("core.bgc_allocs_per_obj", err)
	}
	v.Set("core.bgc_allocs_per_obj", allocs/listObjs, Reps)
	return nil
}

// rvmProbes time a checkpoint and a recovery of a 2 000-object bunch on the
// in-memory store (BenchmarkE9's shape: checkpoint, write, sync, crash,
// recover), and verify that recovery brings back every value.
func rvmProbes(v harness.Values, _ string) error {
	n := bmx.New(bmx.Config{Nodes: 1, SegWords: 4096, WithDisk: true}).Node(0)
	b := n.NewBunch()
	list, err := trace.BuildList(n, b, listObjs)
	if err != nil {
		return wrap("rvm fixture", err)
	}
	objs := list.Objects // a linked list, object i holding i in word 1
	var ckpt, recov []float64
	for r := 0; r < Reps; r++ {
		start := time.Now()
		if err := n.Checkpoint(b); err != nil {
			return wrap("rvm.checkpoint_ms", err)
		}
		ckpt = append(ckpt, float64(time.Since(start))/1e6)

		mark := uint64(1_000_000 + r)
		if err := n.WriteWord(objs[0], 1, mark); err != nil {
			return wrap("rvm write", err)
		}
		n.Sync()
		if err := n.Crash(b); err != nil {
			return wrap("rvm crash", err)
		}
		start = time.Now()
		if err := n.RecoverBunch(b); err != nil {
			return wrap("rvm.recover_ms", err)
		}
		recov = append(recov, float64(time.Since(start))/1e6)

		for i, o := range objs {
			want := uint64(i)
			if i == 0 {
				want = mark
			}
			if got, err := n.ReadWord(o, 1); err != nil || got != want {
				return fmt.Errorf("probe rvm: after recovery object %d reads %d (%v), want %d", i, got, err, want)
			}
		}
	}
	v.Set("rvm.checkpoint_ms", harness.Median(ckpt), Reps)
	v.Set("rvm.recover_ms", harness.Median(recov), Reps)
	return nil
}

// storeProbes time the commit primitive of each backend: append 256 bytes to
// one file and sync it, a thousand times. flatfs runs on the real file
// system under tmp, so its number is the sandbox's fsync, not a device's.
func storeProbes(v harness.Values, tmp string) error {
	commits := scaled(1000)
	dir, err := os.MkdirTemp(tmp, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	backends := []struct {
		name string
		s    store.Store
	}{
		{"store.mem_sync_us", store.NewDisk()},
		{"store.flatfs_sync_us", store.NewFlatFS(filepath.Join(dir, "flatfs"))},
		{"store.lsm_sync_us", store.NewLSM()},
	}
	rec := make([]byte, 256)
	for _, be := range backends {
		var h harness.Hist
		for i := 0; i < commits; i++ {
			start := time.Now()
			be.s.Append("log", rec)
			be.s.Sync("log")
			h.Add(int64(time.Since(start)))
		}
		if _, _, syncs := be.s.Stats(); syncs != int64(commits) {
			return fmt.Errorf("probe %s: backend counted %d syncs of %d", be.name, syncs, commits)
		}
		v.Set(be.name, h.Quantile(0.5)/1e3, uint64(commits))
	}
	return nil
}

// overheadProbes price the two recorders the program carries, as the ratio
// of local_hot's op rate with the recorder on to the rate with it off, over
// the same fixed stretch of the same stream. Both budgets are ROADMAP aim 4's.
func overheadProbes(v harness.Values, tmp string) error {
	ops := max(scaled(50000), harness.BlockOps) // Quiet wants a whole block
	w, err := harness.Lookup("local_hot")
	if err != nil {
		return err
	}
	rate := func(enable func(*harness.Env)) (float64, error) {
		env, err := harness.Setup(w, 1, false, tmp)
		if err != nil {
			return 0, err
		}
		defer env.Close()
		enable(env)
		res := env.Run(0, ops, nil)
		if res.Failed > 0 {
			return 0, fmt.Errorf("%d ops failed, first: %s", res.Failed, res.FirstError)
		}
		return harness.BlockOps / res.Quiet(func(b harness.Block) float64 { return float64(b.NS) }, 0), nil
	}
	off, err := rate(func(*harness.Env) {})
	if err != nil {
		return wrap("obs/heat baseline", err)
	}
	tracing, err := rate((*harness.Env).EnableTracing)
	if err != nil {
		return wrap("obs.tracing_on_ratio", err)
	}
	heat, err := rate((*harness.Env).EnableHeat)
	if err != nil {
		return wrap("heat.enabled_ratio", err)
	}
	v.Set("obs.tracing_on_ratio", tracing/off, uint64(ops))
	v.Set("heat.enabled_ratio", heat/off, uint64(ops))
	return nil
}
