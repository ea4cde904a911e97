package main

import (
	"bytes"
	"os/exec"
	"testing"
)

// The example end to end: built and run, it exits 0 and prints its
// closing line, the exactly-once and conservation audit's verdict.
func TestRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("fleet: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("FLEET AUDIT PASSED")) {
		t.Fatalf("fleet did not print %q:\n%s", "FLEET AUDIT PASSED", out)
	}
}
