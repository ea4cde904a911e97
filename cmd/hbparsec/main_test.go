package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/parsec"
)

// Every kernel end to end, briefly, publishing to a ring file: built and
// run, it exits 0 and prints one closing rate line per kernel.
func TestRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	ring := filepath.Join(t.TempDir(), "parsec.hb")
	out, err := exec.Command("go", "run", ".", "-duration", "20ms", "-hbfile", ring).CombinedOutput()
	if err != nil {
		t.Fatalf("hbparsec: %v\n%s", err, out)
	}
	if got, want := bytes.Count(out, []byte("(checksum ")), len(parsec.Kernels()); got != want {
		t.Fatalf("%d closing lines, want one per kernel (%d):\n%s", got, want, out)
	}
	if _, err := os.Stat(ring); err != nil {
		t.Fatalf("no ring file published: %v", err)
	}
}
