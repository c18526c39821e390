package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"bmx/internal/obs"
)

// refused runs bmxd with args and requires exit status 2 with every name
// in want in the refusal.
func refused(t *testing.T, args []string, want ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bmxdBinary(t), args...).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("bmxd %s: err = %v, want exit status 2\n%s", strings.Join(args, " "), err, out)
	}
	for _, name := range want {
		if !strings.Contains(string(out), name) {
			t.Fatalf("refusal does not name %s:\n%s", name, out)
		}
	}
}

// Multi-process mode reads only the flags modeFlags["listen"] names. Any
// other flag set beside -listen must stop the process with exit status 2,
// naming the flag, before it opens a socket — not run a volatile cluster
// the user did not ask for. The peer address is unreachable on purpose: a
// process that went on to wait for the mesh would be killed by the
// deadline instead.
func TestPeerModeRefusesUnsupportedFlags(t *testing.T) {
	refused(t, []string{"-listen", "127.0.0.1:0", "-peers", "127.0.0.1:1", "-store", "mem"}, "-store")
}

// Every other mode refuses the flags it does not read the same way, before
// it runs anything.
func TestEveryModeRefusesFlagsItDoesNotRead(t *testing.T) {
	t.Run("sim", func(t *testing.T) {
		refused(t, []string{"-nodes", "2", "-peers", "127.0.0.1:1", "-chaos-steps", "5"}, "-peers", "-chaos-steps")
	})
	t.Run("chaos", func(t *testing.T) {
		refused(t, []string{"-chaos", "-store", "lsm", "-rounds", "3", "-workload", "tree"}, "-store", "-rounds", "-workload")
	})
	t.Run("chaos-crash", func(t *testing.T) {
		refused(t, []string{"-chaos-crash", "-loss", "0.5", "-dup", "0.3"}, "-loss", "-dup")
	})
}

// TestModeFlagsCoverEveryFlag keeps the mode table and main.go's flag
// definitions one set: a name the table lists must be a flag, and a flag
// no mode reads could never be set.
func TestModeFlagsCoverEveryFlag(t *testing.T) {
	defined := bmxdFlags(t)
	read := map[string]bool{}
	for mode, names := range modeFlags {
		for _, name := range names {
			if !slices.Contains(defined, name) {
				t.Errorf("modeFlags[%q] names -%s, which main.go does not define", mode, name)
			}
			read[name] = true
		}
	}
	for _, name := range defined {
		if !read[name] {
			t.Errorf("no mode reads -%s", name)
		}
	}
}

// TestTraceOutWritesStreamInEveryMode runs the simulated driver and the
// chaos soak with -trace-out and reads each file back with the stream
// reader; the multi-process mode's files are read by
// TestThreeProcessClusterConverges.
func TestTraceOutWritesStreamInEveryMode(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		heat bool
	}{
		{"sim", []string{"-nodes", "2", "-objects", "20", "-rounds", "2", "-workload", "tree"}, true},
		{"chaos", []string{"-chaos", "-nodes", "2", "-chaos-steps", "30", "-seed", "3"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ndjson")
			out, err := exec.Command(bmxdBinary(t), append(tc.args, "-trace-out", path)...).CombinedOutput()
			if err != nil {
				t.Fatalf("bmxd: %v\n%s", err, out)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			st, err := obs.ReadStream(f)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.Events) == 0 {
				t.Fatal("the stream carries no events")
			}
			if tc.heat && (len(st.Heat) == 0 || len(st.Samples) == 0 || len(st.Hists) == 0) {
				t.Fatalf("the stream misses a kind: %d heat rows, %d samples, %d histograms",
					len(st.Heat), len(st.Samples), len(st.Hists))
			}
		})
	}
}
