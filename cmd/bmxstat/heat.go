package main

import (
	"fmt"

	"bmx/internal/addr"
	"bmx/internal/obs/heat"
)

// Heat mode: `bmxstat -heat n0.ndjson n1.ndjson n2.ndjson` takes the heat
// rows of the per-process streams (or /heat downloads), merged into one
// cluster-wide table (owner marks resolve to the latest Lamport tick across
// processes), and prints the locality report: hottest objects with their
// per-node access split, the per-bunch and per-node remote ratios, and the
// migration advice list — objects whose dominant writer is not their
// current owner, ranked by the ownerPtr hops that mismatch cost.
func printHeat(rows []heat.Row, topN int, asJSON bool) {
	rep := heat.Analyze(rows)
	if asJSON {
		emitJSON(rep)
		return
	}
	fmt.Printf("-- access heat (%d tracked objects, %d accesses) --\n",
		rep.TrackedObjects, rep.TotalAccesses)
	fmt.Printf("acquires %d, remote %d (ratio %.2f), wasted hops %d\n",
		rep.TotalAcquires, rep.RemoteAcquires, rep.RemoteRatio, rep.WastedHops)
	fmt.Println()
	fmt.Printf("-- hottest objects (top %d) --\n", topN)
	fmt.Printf("%-8s %-6s %8s %8s %8s %7s %6s %-8s %-8s\n",
		"oid", "bunch", "reads", "writes", "acquires", "remote", "ratio", "owner", "dominant")
	for i, o := range rep.Objects {
		if i >= topN {
			break
		}
		fmt.Printf("%-8v %-6v %8d %8d %8d %7d %6.2f %-8s %-8s\n",
			addr.OID(o.OID), addr.BunchID(o.Bunch), o.Reads, o.Writes, o.Acquires,
			o.Remote, o.Ratio, nodeName(o.Owner), nodeName(o.Dominant))
		for _, s := range o.PerNode {
			fmt.Printf("    %-8v %8d %8d %8d %7d\n",
				addr.NodeID(s.Node), s.Reads, s.Writes, s.Acquires, s.Remote)
		}
	}
	fmt.Println()
	fmt.Println("-- per-node locality --")
	fmt.Printf("%-8s %8s %8s %8s %7s %6s %6s\n",
		"node", "reads", "writes", "acquires", "remote", "ratio", "hops")
	for _, n := range rep.Nodes {
		fmt.Printf("%-8v %8d %8d %8d %7d %6.2f %6d\n",
			addr.NodeID(n.Node), n.Reads, n.Writes, n.Acquires, n.Remote, n.Ratio, n.Hops)
	}
	if len(rep.Bunches) > 0 {
		fmt.Println()
		fmt.Println("-- per-bunch locality --")
		fmt.Printf("%-8s %8s %9s %8s %7s %6s\n",
			"bunch", "objects", "accesses", "acquires", "remote", "ratio")
		for _, b := range rep.Bunches {
			fmt.Printf("%-8v %8d %9d %8d %7d %6.2f\n",
				addr.BunchID(b.Bunch), b.Objects, b.Accesses, b.Acquires, b.Remote, b.Ratio)
		}
	}
	fmt.Println()
	if len(rep.Mismatches) == 0 {
		fmt.Println("-- migration advice: none (every object is owned by its dominant writer) --")
		return
	}
	fmt.Printf("-- migration advice (%d owner/dominant-writer mismatches) --\n", len(rep.Mismatches))
	for _, m := range rep.Mismatches {
		fmt.Printf("%v: owner %v, dominant writer %v (writes %d), remote ratio %.2f, wasted hops %d\n",
			addr.OID(m.OID), addr.NodeID(m.Owner), addr.NodeID(m.Dominant),
			m.Writes, m.RemoteRatio, m.WastedHops)
	}
}

// nodeName renders the report's int32 node columns, where -1 means unknown.
func nodeName(n int32) string {
	if n < 0 {
		return "-"
	}
	return addr.NodeID(n).String()
}
