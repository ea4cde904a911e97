package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// One experiment end to end through the built binary: it prints the
// experiment's header and notes, writes <id>.csv into -out, and exits 0.
func TestRunOneExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hbexperiments")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	csvDir := filepath.Join(dir, "csv")
	out, err := exec.Command(bin, "-run", "fig5", "-out", csvDir).CombinedOutput()
	if err != nil {
		t.Fatalf("hbexperiments: %v\n%s", err, out)
	}
	for _, want := range []string{"== fig5: ", "note: ", "wrote " + filepath.Join(csvDir, "fig5.csv")} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	csv, err := os.ReadFile(filepath.Join(csvDir, "fig5.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(csv), "\n"); lines < 2 {
		t.Errorf("fig5.csv has %d lines, want a header and rows:\n%s", lines, csv)
	}
}
