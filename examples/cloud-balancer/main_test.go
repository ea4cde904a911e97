package main

import (
	"bytes"
	"os/exec"
	"testing"
)

// The example end to end: built and run, it exits 0 and prints its
// closing line, the live audit's verdict.
func TestRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("cloud-balancer: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("OK: detection, drain, minimal reshuffle, exact reclaim")) {
		t.Fatalf("cloud-balancer did not print %q:\n%s", "OK: detection, drain, minimal reshuffle, exact reclaim", out)
	}
}
