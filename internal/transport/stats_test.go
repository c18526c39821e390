package transport

import (
	"strings"
	"sync"
	"testing"

	"bmx/internal/obs"
)

// TestStatsConcurrentHammer exercises every Stats entry point from many
// goroutines at once. Its value is under the race detector (CI runs the
// package with -race): any unsynchronized access to the counter map is
// reported there, and the final cross-check catches lost updates on the
// counters no Reset raced with.
func TestStatsConcurrentHammer(t *testing.T) {
	s := NewStats()
	const (
		workers = 8
		rounds  = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s.Add("stable.total", 1)
				s.Add("volatile.a", 2)
				switch i % 4 {
				case 0:
					_ = s.Get("stable.total")
				case 1:
					_ = s.SumPrefix("volatile.")
				case 2:
					_ = s.Snapshot()
				case 3:
					_ = s.String()
				}
				if w == 0 && i%100 == 99 {
					// Reset races with everything above by design; only the
					// counters written after the last Reset survive, which
					// is why the final assertion re-adds its own marker.
					s.Reset()
				}
			}
		}(w)
	}
	wg.Wait()

	s.Reset()
	s.Add("final.marker", 7)
	if got := s.Get("final.marker"); got != 7 {
		t.Fatalf("final.marker = %d, want 7", got)
	}
	if got := s.SumPrefix("final."); got != 7 {
		t.Fatalf(`SumPrefix("final.") = %d, want 7`, got)
	}
}

// TestStatsSnapshotListsTouchedNamesOnly pins what registration on first
// Add must preserve: a name touched only by Add(name, 0) is listed (tools
// count counter names, and a zero-valued counter is still a name), and a
// name never touched — even one only read with Get — is not.
func TestStatsSnapshotListsTouchedNamesOnly(t *testing.T) {
	s := NewStats()
	s.Add("touched.zero", 0)
	s.Add("touched.one", 1)
	_ = s.Get("read.only")
	_ = s.SumPrefix("read.")
	snap := s.Snapshot()
	if v, ok := snap["touched.zero"]; !ok || v != 0 {
		t.Fatalf("touched.zero = %d, %v; want listed at 0", v, ok)
	}
	if snap["touched.one"] != 1 {
		t.Fatalf("touched.one = %d, want 1", snap["touched.one"])
	}
	if _, ok := snap["read.only"]; ok {
		t.Fatal("a name never added is listed")
	}
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d names, want 2: %v", len(snap), snap)
	}
	s.Reset()
	if len(s.Snapshot()) != 0 {
		t.Fatal("Reset left names behind")
	}
}

// TestCountSendNames pins the per-message counter names the transports
// take from fixed tables to the names they used to build per message.
func TestCountSendNames(t *testing.T) {
	s := NewStats()
	m := Msg{Kind: "dsm.acquire", Class: ClassGC, Bytes: 32}
	s.CountSend(m)
	s.CountReply(m, 100)
	s.CountSend(Msg{Kind: "dsm.acquire", Class: Class(7), Bytes: 1})
	want := map[string]int64{
		"msg.sent.gc":                     2,
		"msg.sent.kind.dsm.acquire":       2,
		"msg.sent.kind.dsm.acquire.reply": 1,
		"bytes.sent.gc":                   132,
		"msg.sent.class(7)":               1,
		"bytes.sent.class(7)":             1,
	}
	got := s.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s = %d, want %d (all: %v)", k, got[k], v, got)
		}
	}
}

// TestStatsStringOrderingAndZeroSuppression pins the readout contract every
// tool and CI log relies on: one line per counter, sorted by name, counters
// that are (back to) zero suppressed.
func TestStatsStringOrderingAndZeroSuppression(t *testing.T) {
	s := NewStats()
	s.Add("zebra.last", 3)
	s.Add("alpha.first", 1)
	s.Add("mid.gone", 5)
	s.Add("mid.gone", -5) // touched but zero: must not appear
	s.Add("mid.kept", 2)

	out := s.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("String() printed %d lines, want 3 (zero counter suppressed):\n%s", len(lines), out)
	}
	wantOrder := []string{"alpha.first", "mid.kept", "zebra.last"}
	for i, name := range wantOrder {
		if !strings.HasPrefix(lines[i], name) {
			t.Fatalf("line %d = %q, want it to start with %q (sorted order)", i, lines[i], name)
		}
	}
	if strings.Contains(out, "mid.gone") {
		t.Fatalf("String() printed a zero counter:\n%s", out)
	}
}

// TestZeroStatsObserverIsNil pins the nil-tolerance contract: a zero Stats
// (not built by NewStats) hands out a nil Observer, and every obs entry
// point downstream must tolerate it — layers cache recorders uncondition-
// ally, so this is what keeps a hand-rolled Stats{} from panicking.
func TestZeroStatsObserverIsNil(t *testing.T) {
	var s *Stats
	if s.Observer() != nil {
		t.Fatal("nil Stats must return a nil Observer")
	}
	z := &Stats{}
	o := z.Observer()
	if o != nil {
		t.Fatal("zero Stats must return a nil Observer")
	}
	// All of these must be no-ops, not panics.
	o.Recorder(0).Emit(obs.Event{Kind: obs.KSend})
	o.Hist("x").Observe(1)
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
}
