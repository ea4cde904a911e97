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
		t.Fatalf("quickstart: %v\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("total beats: 60 (checksum")) {
		t.Fatalf("quickstart did not print %q:\n%s", "total beats: 60 (checksum", out)
	}
}
