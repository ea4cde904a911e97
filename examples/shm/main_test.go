package main

import (
	"bytes"
	"os/exec"
	"testing"
)

// The example end to end: built and run, it exits 0 and prints its
// closing line, the delivered-plus-lapped audit.
func TestRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	out, err := exec.Command("go", "run", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("shm: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("published — conserved")) {
		t.Fatalf("shm did not print %q:\n%s", "published — conserved", out)
	}
}
