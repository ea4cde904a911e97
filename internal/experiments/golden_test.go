package experiments

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/golden"
)

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
//
// The goldens and the IDs cover each other: every ID but overhead has a
// golden (TestOverheadShape covers overhead), and every golden an ID —
// checked once the subtests have written any goldens -update asked for.
func TestGoldens(t *testing.T) {
	var ids []string
	for _, id := range IDs() {
		if id != "overhead" {
			ids = append(ids, id)
		}
	}
	t.Cleanup(func() {
		files, err := filepath.Glob(filepath.Join("testdata", "*.golden"))
		if err != nil {
			t.Fatal(err)
		}
		var goldens []string
		for _, f := range files {
			goldens = append(goldens, strings.TrimSuffix(filepath.Base(f), ".golden"))
		}
		want := slices.Clone(ids)
		if slices.Sort(want); !slices.Equal(goldens, want) {
			t.Errorf("goldens %v, want one per ID but overhead: %v", goldens, want)
		}
	})
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			r, err := Run(id, goldenScale)
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", id+".golden"), renderGolden(t, r))
		})
	}
}

// renderGolden is cmd/hbexperiments' output for one result at its default
// chart size, followed by the CSV its -out flag writes.
func renderGolden(t *testing.T, r Result) []byte {
	t.Helper()
	if r.Table == nil && r.Series == nil || len(r.Notes) == 0 {
		t.Fatalf("%s: table %v, series %v, %d notes; want a table or a series, and notes",
			r.ID, r.Table != nil, r.Series != nil, len(r.Notes))
	}
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
