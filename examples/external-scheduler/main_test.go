package main

import (
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// The example end to end through the built binary: what it prints must
// match testdata/external-scheduler.golden byte for byte.
func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "external-scheduler")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin).Output()
	if err != nil {
		t.Fatalf("external-scheduler: %v", err)
	}
	golden.Check(t, filepath.Join("testdata", "external-scheduler.golden"), out)
}
