// Webgraph: the paper's §1 motivation — an intricate, widely shared,
// web-like object graph ("exploratory tools similar to the World-Wide-Web")
// whose manual storage management would leak or dangle. Three nodes browse
// and edit a shared document graph; links churn; the distributed collector
// reclaims unreachable documents across nodes using only idempotent
// background tables, even with 20% message loss.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"bmx"
)

const (
	docs      = 120
	outDegree = 3
	rounds    = 8
)

func main() {
	cl := bmx.New(bmx.Config{Nodes: 3, SegWords: 512, Seed: 42,
		Faults: bmx.FaultPlan{Default: bmx.FaultRates{Drop: 0.2}}})
	home := cl.Node(0)
	b := home.NewBunch()

	// Build the site: documents with links, everything reachable from the
	// front page.
	rng := rand.New(rand.NewSource(7))
	var pages []bmx.Ref
	for i := 0; i < docs; i++ {
		p := home.MustAlloc(b, outDegree+1)
		check(home.WriteWord(p, outDegree, uint64(i))) // document id
		pages = append(pages, p)
	}
	front := pages[0]
	home.AddRoot(front)
	for i, p := range pages {
		for f := 0; f < outDegree; f++ {
			// Link mostly to earlier pages so everything hangs off the
			// front page.
			var tgt bmx.Ref
			if i == 0 {
				tgt = pages[1+rng.Intn(docs-1)]
			} else {
				tgt = pages[rng.Intn(i)]
			}
			check(home.WriteRef(p, f, tgt))
		}
	}
	// A spanning chain guarantees initial reachability of every page.
	for i := 1; i < docs; i++ {
		check(home.WriteRef(pages[i-1], outDegree-1, pages[i]))
	}

	// Every page starts bookmarked (a mutator root at the home node: the
	// site index). Two browsing nodes pull the whole site into their
	// caches.
	bookmarked := make([]bool, docs)
	for i, p := range pages {
		home.AddRoot(p)
		bookmarked[i] = true
	}
	for _, n := range []*bmx.Node{cl.Node(1), cl.Node(2)} {
		for _, p := range pages {
			check(n.AcquireRead(p))
		}
	}
	fmt.Printf("site built: %d documents shared on 3 nodes\n", docs)

	// Edit sessions: the editor (rotating node) rewrites links on
	// still-bookmarked pages; the home node drops bookmarks over time.
	// Unbookmarked pages survive only while links reach them — classic
	// web rot, and exactly the error-prone manual-management scenario of
	// §1 that the collector makes safe.
	for r := 0; r < rounds; r++ {
		editor := cl.Node(r % 3)
		for e := 0; e < 10; e++ {
			i := rng.Intn(docs)
			if !bookmarked[i] {
				continue // an editor only opens pages still in the index
			}
			p := pages[i]
			check(editor.AcquireWrite(p))
			// Mostly deletions, occasionally a re-link.
			f := rng.Intn(outDegree)
			if rng.Intn(10) < 7 {
				check(editor.WriteRef(p, f, bmx.Nil))
			} else if j := rng.Intn(docs); bookmarked[j] {
				// A re-link opens its target too: a node can only store
				// the address of an object it holds, and the editor's
				// own collections drop the replicas it holds no root for.
				check(editor.AcquireRead(pages[j]))
				check(editor.WriteRef(p, f, pages[j]))
				editor.Release(pages[j])
			}
		}
		// The index shrinks: a few pages lose their bookmark each round.
		for d := 0; d < 8; d++ {
			i := 1 + rng.Intn(docs-1) // never drop the front page
			if bookmarked[i] {
				bookmarked[i] = false
				home.RemoveRoot(pages[i])
			}
		}
		for i := 0; i < 3; i++ {
			cl.Node(i).CollectBunch(b)
		}
		cl.Run(0)
	}
	// A few quiescent rounds let the reachability tables converge under
	// the lossy network.
	for r := 0; r < 4; r++ {
		for i := 0; i < 3; i++ {
			cl.Node(i).CollectBunch(b)
		}
		cl.Run(0)
	}

	// Survey the end state.
	present := 0
	for _, p := range pages {
		if _, ok := home.DSM().Canonical(p.OID); ok {
			present++
		}
	}
	st := cl.Stats()
	fmt.Printf("after %d edit rounds: %d/%d documents still reachable at the home node\n",
		rounds, present, docs)
	fmt.Printf("objects reclaimed across all replicas: %d\n", st.Get("core.gc.dead"))
	fmt.Printf("background GC messages lost to the network: %d (harmless: tables are idempotent)\n",
		st.Get("msg.lost"))
	fmt.Printf("collector token acquires: %d, collector invalidations: %d\n",
		st.Get("dsm.acquire.r.gc")+st.Get("dsm.acquire.w.gc"),
		st.Get("dsm.invalidation.gc"))

	// The front page must still browse correctly wherever it is read.
	check(cl.Node(2).AcquireRead(front))
	if v, err := cl.Node(2).ReadWord(front, outDegree); err != nil || v != 0 {
		log.Fatalf("front page corrupted: %d, %v", v, err)
	}
	fmt.Println("front page intact on every node")
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
