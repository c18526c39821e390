package obs

import (
	"fmt"
	"io"
)

// Dump writes one line per event — the human-readable flight-recorder
// readout. Columns: global sequence, simulated tick, node, kind, class,
// object, peers, kind-specific scalars, flags.
func Dump(w io.Writer, evs []Event) {
	fmt.Fprintf(w, "%8s %6s %-4s %-18s %-3s %-6s detail\n", "seq", "tick", "node", "kind", "cls", "oid")
	for _, e := range evs {
		fmt.Fprintln(w, e.String())
	}
}
