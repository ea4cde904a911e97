package main

import (
	"os"
	"testing"
)

// README.md and ARCHITECTURE.md pass docscheck: every go fence is
// annotated, parses, and is an in-order excerpt of the file it names.
// Snippet sources are module-relative, so the check runs from the root.
func TestDocs(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, doc := range []string{"README.md", "ARCHITECTURE.md"} {
		for _, err := range checkFile(doc) {
			t.Error(err)
		}
	}
}
