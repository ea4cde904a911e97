package main

import (
	"bytes"
	"go/format"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot is the module's directory, seen from this package's.
const moduleRoot = "../.."

// The five default analyzers find nothing in the module: `go test ./...`
// carries the clock seam, the hot-path contract, clock hygiene, the
// surface-with-users rule and the purity of the sans-I/O cores, not only
// `make analyze`.
func TestModuleVet(t *testing.T) {
	findings, err := vet(moduleRoot, all, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// Every Go file outside testdata (where analyzer inputs are deliberately
// odd) is as gofmt would write it.
func TestModuleGofmt(t *testing.T) {
	err := filepath.WalkDir(moduleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != moduleRoot && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if out, err := format.Source(src); err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-formatted", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
