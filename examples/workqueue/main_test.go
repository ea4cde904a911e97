package main

import (
	"bytes"
	"os/exec"
	"testing"
)

// The example end to end: built and run, it exits 0 and prints its
// closing line.
func TestRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("workqueue: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("heartbeat-mediated balancing speedup over round-robin:")) {
		t.Fatalf("workqueue did not print %q:\n%s", "heartbeat-mediated balancing speedup over round-robin:", out)
	}
}
