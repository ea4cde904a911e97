package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/golden"
)

// The module's surface is a ratchet: per package directory, the exported
// identifiers, the //hbvet:api marks that keep unused ones, and the
// //hbvet:allow waivers outside testdata. Lines are left out, since a
// feature may add them. A change to any count fails until the golden is
// rewritten with -update, and the change that does so says why.
func TestSurface(t *testing.T) {
	const root = "../.."
	var out strings.Builder
	var total surface
	fmt.Fprintf(&out, "%-44s %8s %5s %6s\n", "package", "exported", "marks", "allows")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		n, err := measure(path)
		if err != nil {
			return err
		}
		if n == (surface{}) {
			return nil // no Go files
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		fmt.Fprintf(&out, "%-44s %8d %5d %6d\n", filepath.ToSlash(rel), n.exported, n.marks, n.allows)
		total.exported, total.marks, total.allows = total.exported+n.exported, total.marks+n.marks, total.allows+n.allows
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "%-44s %8d %5d %6d\n", "total", total.exported, total.marks, total.allows)
	golden.Check(t, "testdata/surface.golden", []byte(out.String()))
}
