package bmx_test

import (
	"fmt"

	"bmx"
)

// The canonical two-node session: allocate, share through tokens, collect
// without touching the consistency protocol.
func Example() {
	cl := bmx.New(bmx.Config{Nodes: 2})
	n1, n2 := cl.Node(0), cl.Node(1)

	b := n1.NewBunch()
	obj := n1.MustAlloc(b, 2)
	n1.AddRoot(obj)
	n1.WriteWord(obj, 0, 42)

	n2.AcquireRead(obj)
	v, _ := n2.ReadWord(obj, 0)
	fmt.Println("shared value:", v)

	st := n1.CollectBunch(b)
	cl.Run(0)
	fmt.Println("collected, copied:", st.Copied)
	fmt.Println("GC token acquires:",
		cl.Stats().Get("dsm.acquire.r.gc")+cl.Stats().Get("dsm.acquire.w.gc"))
	// Output:
	// shared value: 42
	// collected, copied: 1
	// GC token acquires: 0
}

// Distributed garbage: a cross-bunch, cross-node reference is protected by
// a stub-scion pair; cutting it lets the scion cleaner reclaim the target
// through idempotent background tables.
func ExampleNode_CollectBunch() {
	cl := bmx.New(bmx.Config{Nodes: 2, Seed: 1})
	n1, n2 := cl.Node(0), cl.Node(1)
	b1, b2 := n1.NewBunch(), n2.NewBunch()

	tgt := n2.MustAlloc(b2, 1)
	src := n1.MustAlloc(b1, 1)
	n1.AddRoot(src)
	n1.AcquireRead(tgt)
	n1.WriteRef(src, 0, tgt) // the write barrier builds the SSP

	n1.AcquireWrite(src)
	n1.WriteRef(src, 0, bmx.Nil) // cut

	for round := 0; round < 3; round++ {
		for _, nd := range []*bmx.Node{n1, n2} {
			for _, b := range nd.Collector().MappedBunches() {
				nd.CollectBunch(b)
			}
		}
		cl.Run(0)
	}
	_, present := n2.DSM().Canonical(tgt.OID)
	fmt.Println("target still present:", present)
	// Output:
	// target still present: false
}

// Transactional sections buffer writes until commit; aborts vanish.
func ExampleNode_Begin() {
	cl := bmx.New(bmx.Config{Nodes: 1})
	n := cl.Node(0)
	b := n.NewBunch()
	acct := n.MustAlloc(b, 1)
	n.AddRoot(acct)
	n.WriteWord(acct, 0, 100)

	tx := n.Begin()
	tx.WriteWord(acct, 0, 150)
	balance, _ := tx.ReadWord(acct, 0) // read-your-writes
	fmt.Println("inside tx:", balance)
	tx.Abort()

	v, _ := n.ReadWord(acct, 0)
	fmt.Println("after abort:", v)
	// Output:
	// inside tx: 150
	// after abort: 100
}

// The group collector reclaims inter-bunch cycles that per-bunch
// collections must conservatively retain.
func ExampleNode_CollectGroup() {
	cl := bmx.New(bmx.Config{Nodes: 1})
	n := cl.Node(0)
	b1, b2 := n.NewBunch(), n.NewBunch()
	x := n.MustAlloc(b1, 1)
	y := n.MustAlloc(b2, 1)
	n.WriteRef(x, 0, y)
	n.WriteRef(y, 0, x) // a dead 2-cycle across bunches

	n.CollectBunch(b1)
	n.CollectBunch(b2)
	cl.Run(0)
	_, survived := n.DSM().Canonical(x.OID)
	fmt.Println("after BGCs, cycle present:", survived)

	st := n.CollectGroup(nil)
	fmt.Println("GGC reclaimed:", st.Dead)
	// Output:
	// after BGCs, cycle present: true
	// GGC reclaimed: 2
}
