// Package golden compares a test's output byte for byte with a file under
// its package's testdata directory — the regression net for the paper's
// experiments and for the commands and examples that print decisions. A
// test binary importing it gains an -update flag that rewrites the files
// from the current output instead:
//
//	go test ./cmd/hbsched -update
package golden

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from the current output")

// Check fails t, naming the first differing line, unless got equals the
// contents of path; under -update it writes got to path instead.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (create it with -update)", err)
	}
	if line, g, w, differ := firstDiff(got, want); differ {
		t.Errorf("output differs from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update if the change is meant)", path, line, g, w)
	}
}

// firstDiff returns the first line (1-based) at which got and want differ,
// and that line of each; a missing line reads as "<end of output>".
func firstDiff(got, want []byte) (line int, g, w string, differ bool) {
	gl := strings.Split(string(got), "\n")
	wl := strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		g, w = "<end of output>", "<end of output>"
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			return i + 1, g, w, true
		}
	}
	return 0, "", "", false
}
