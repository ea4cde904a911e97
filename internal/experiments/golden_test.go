package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<id>.golden from the current output")

// goldenScale is the scale the goldens are recorded at: 40 encoder frames
// keeps the ten experiments to a few seconds together, and every decision
// the controllers, schedulers and machine models make still shows in the
// output.
var goldenScale = Options{EncoderFrames: 40}

// TestGoldens runs every deterministic experiment (all but overhead, which
// times the wall clock) and compares what cmd/hbexperiments prints, and
// the CSV it writes with -out, byte for byte against
// testdata/<id>.golden. A change that moves any decision of the paper's
// evaluation fails here; one that means to rewrites the goldens with
//
//	go test ./internal/experiments -run TestGoldens -update
func TestGoldens(t *testing.T) {
	for _, id := range IDs() {
		if id == "overhead" {
			continue
		}
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r, err := Run(id, goldenScale)
			if err != nil {
				t.Fatal(err)
			}
			got := renderGolden(t, r)
			path := filepath.Join("testdata", id+".golden")
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
				t.Errorf("%s differs from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update if the change is meant)", id, path, line, g, w)
			}
		})
	}
}

// renderGolden is cmd/hbexperiments' output for one result at its default
// chart size, followed by the CSV its -out flag writes.
func renderGolden(t *testing.T, r Result) []byte {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "== %s ==\n", r.Title)
	if r.Table != nil {
		r.Table.Render(&b)
	}
	if r.Series != nil {
		r.Series.Chart(&b, 72, 16)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(&b, "note:", n)
	}
	fmt.Fprintf(&b, "-- %s.csv --\n", r.ID)
	var err error
	if r.Table != nil {
		err = r.Table.WriteCSV(&b)
	} else {
		err = r.Series.WriteCSV(&b)
	}
	if err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
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
