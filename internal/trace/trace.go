// Package trace provides deterministic workload generators for the
// experiment harness: the object graphs the paper's introduction motivates
// (intricate application graphs — design databases, cooperative work,
// web-like exploration structures), drivers for sharing them across nodes,
// and churn (death-rate) control.
package trace

import (
	"fmt"
	"math/rand"

	"bmx/internal/addr"
	"bmx/internal/cluster"
)

// Graph is a built object graph: the root handle plus every allocated
// object in creation order.
type Graph struct {
	Root    cluster.Ref
	Objects []cluster.Ref
}

// BuildList allocates a singly linked list of n objects (fields: 0 = next,
// 1 = payload) in bunch b at node nd, roots the head, and returns it.
func BuildList(nd *cluster.Node, b addr.BunchID, n int) (Graph, error) {
	var g Graph
	var prev cluster.Ref
	for i := 0; i < n; i++ {
		o, err := nd.Alloc(b, 2)
		if err != nil {
			return g, err
		}
		if err := nd.WriteWord(o, 1, uint64(i)); err != nil {
			return g, err
		}
		g.Objects = append(g.Objects, o)
		if i == 0 {
			g.Root = o
			nd.AddRoot(o)
		} else if err := nd.WriteRef(prev, 0, o); err != nil {
			return g, err
		}
		prev = o
	}
	return g, nil
}

// BuildTree allocates a complete binary tree of depth d (fields: 0 = left,
// 1 = right, 2 = payload) in bunch b at node nd and roots it.
func BuildTree(nd *cluster.Node, b addr.BunchID, depth int) (Graph, error) {
	var g Graph
	var build func(d int) (cluster.Ref, error)
	build = func(d int) (cluster.Ref, error) {
		o, err := nd.Alloc(b, 3)
		if err != nil {
			return cluster.Nil, err
		}
		g.Objects = append(g.Objects, o)
		if err := nd.WriteWord(o, 2, uint64(d)); err != nil {
			return cluster.Nil, err
		}
		if d > 0 {
			l, err := build(d - 1)
			if err != nil {
				return cluster.Nil, err
			}
			r, err := build(d - 1)
			if err != nil {
				return cluster.Nil, err
			}
			if err := nd.WriteRef(o, 0, l); err != nil {
				return cluster.Nil, err
			}
			if err := nd.WriteRef(o, 1, r); err != nil {
				return cluster.Nil, err
			}
		}
		return o, nil
	}
	root, err := build(depth)
	if err != nil {
		return g, err
	}
	g.Root = root
	nd.AddRoot(root)
	return g, nil
}

// WebConfig parametrizes BuildWeb.
type WebConfig struct {
	Objects   int     // number of documents
	OutDegree int     // links per document (fields 0..OutDegree-1)
	Seed      int64   // deterministic shape
	DeadFrac  float64 // fraction of documents left unreachable (churned)
}

// BuildWeb allocates a web-like random graph (the World-Wide-Web-style
// exploratory structure of §1): documents with OutDegree random links, a
// fraction of which is left unreachable so collections have work to do.
func BuildWeb(nd *cluster.Node, b addr.BunchID, cfg WebConfig) (Graph, error) {
	if cfg.OutDegree <= 0 {
		cfg.OutDegree = 3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var g Graph
	for i := 0; i < cfg.Objects; i++ {
		o, err := nd.Alloc(b, cfg.OutDegree+1)
		if err != nil {
			return g, err
		}
		if err := nd.WriteWord(o, cfg.OutDegree, uint64(i)); err != nil {
			return g, err
		}
		g.Objects = append(g.Objects, o)
	}
	if len(g.Objects) == 0 {
		return g, fmt.Errorf("trace: empty web")
	}
	g.Root = g.Objects[0]
	nd.AddRoot(g.Root)
	// Link reachable prefix densely; leave a suffix unreachable.
	reachable := int(float64(cfg.Objects) * (1 - cfg.DeadFrac))
	if reachable < 1 {
		reachable = 1
	}
	for i := 0; i < reachable; i++ {
		src := g.Objects[i]
		for f := 0; f < cfg.OutDegree; f++ {
			// Prefer links within the reachable prefix so the prefix is
			// connected; documents 1..reachable-1 each get at least one
			// incoming link from an earlier document.
			var tgt cluster.Ref
			if f == 0 && i > 0 {
				tgt = g.Objects[rng.Intn(i)]
			} else {
				tgt = g.Objects[rng.Intn(reachable)]
			}
			if err := nd.WriteRef(src, f, tgt); err != nil {
				return g, err
			}
		}
	}
	// Guarantee connectivity of the prefix: chain i -> i+1 via field 0 of
	// every even document is not assured above, so add a spanning chain.
	for i := 1; i < reachable; i++ {
		if err := nd.WriteRef(g.Objects[i-1], cfg.OutDegree-1, g.Objects[i]); err != nil {
			return g, err
		}
	}
	return g, nil
}

// Share makes every node in nodes acquire a read token on each of the given
// objects, establishing the replicated working set the paper's scenarios
// assume.
func Share(objects []cluster.Ref, nodes ...*cluster.Node) error {
	for _, nd := range nodes {
		for _, o := range objects {
			if err := nd.AcquireRead(o); err != nil {
				return fmt.Errorf("trace: share %v at %v: %w", o, nd.ID(), err)
			}
		}
	}
	return nil
}

// Churn overwrites payload fields and cuts a fraction of list links at the
// owner node, creating garbage. It returns the number of cuts.
func Churn(nd *cluster.Node, g Graph, frac float64, seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	cuts := 0
	for _, o := range g.Objects {
		if rng.Float64() >= frac {
			continue
		}
		if err := nd.AcquireWrite(o); err != nil {
			return cuts, err
		}
		if err := nd.WriteRef(o, 0, cluster.Nil); err != nil {
			return cuts, err
		}
		cuts++
	}
	return cuts, nil
}

// MutateValues writes n random payload updates across the graph's objects
// at node nd (acquiring write tokens as an application would).
func MutateValues(nd *cluster.Node, g Graph, n int, seed int64) error {
	if len(g.Objects) == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		o := g.Objects[rng.Intn(len(g.Objects))]
		if err := nd.AcquireWrite(o); err != nil {
			return err
		}
		sz, err := nd.Size(o)
		if err != nil {
			return err
		}
		if err := nd.WriteWord(o, sz-1, rng.Uint64()); err != nil {
			return err
		}
	}
	return nil
}

// CountPresent returns how many of the graph's objects still have a replica
// at node nd (used to verify reclamation).
func CountPresent(nd *cluster.Node, g Graph) int {
	n := 0
	for _, o := range g.Objects {
		if _, ok := nd.DSM().Canonical(o.OID); ok {
			n++
		}
	}
	return n
}
