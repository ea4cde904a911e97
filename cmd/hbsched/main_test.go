package main

import (
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/golden"
)

// Both policies end to end through the built binary: every decision the
// scheduler makes over the three workloads shows in the charts, which must
// match testdata/<policy>.golden byte for byte.
func TestGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "hbsched")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, policy := range []string{"stepper", "pi"} {
		out, err := exec.Command(bin, "-policy", policy).Output()
		if err != nil {
			t.Fatalf("hbsched -policy %s: %v", policy, err)
		}
		golden.Check(t, filepath.Join("testdata", policy+".golden"), out)
	}
}
