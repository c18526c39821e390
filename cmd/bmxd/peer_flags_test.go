package main

import (
	"context"
	"errors"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// Multi-process mode reads only the flags in peerFlags. Any other flag set
// beside -listen must stop the process with exit status 2, naming the flag,
// before it opens a socket — not run a volatile cluster the user did not
// ask for. The peer address is unreachable on purpose: a process that went
// on to wait for the mesh would be killed by the deadline instead.
func TestPeerModeRefusesUnsupportedFlags(t *testing.T) {
	bin := bmxdBinary(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin,
		"-listen", "127.0.0.1:0", "-peers", "127.0.0.1:1", "-store", "mem")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("bmxd -listen ... -store mem: err = %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "-store") {
		t.Fatalf("refusal does not name -store:\n%s", out)
	}
}
