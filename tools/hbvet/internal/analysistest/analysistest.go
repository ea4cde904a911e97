// Package analysistest runs an hbvet analyzer over golden testdata
// packages and checks its filtered findings against // want comments,
// mirroring golang.org/x/tools/go/analysis/analysistest (unavailable in
// this offline build) closely enough that the analyzer tests read the
// same way:
//
//	func TestWallclock(t *testing.T) {
//		analysistest.Run(t, analysistest.TestData(t), wallclock.Analyzer, "a")
//	}
//
// Testdata packages live under testdata/src/<path>. Each expectation is a
// trailing comment on the offending line:
//
//	time.Sleep(d) // want `direct time\.Sleep call`
//
// Every regexp must match a distinct finding on its line, every finding
// must be matched, and — because Run applies the same seam and allow
// filtering as the hbvet driver — a line carrying a justified
// //hbvet:allow comment wants nothing at all, which is how the escape
// hatch itself is golden-tested. Testdata packages may import each other
// (dependencies are analyzed first, so cross-package facts flow) and
// anything in the standard library.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/tools/hbvet/internal/analysis"
	"repro/tools/hbvet/internal/load"
)

// TestData returns the test's testdata directory.
func TestData(t *testing.T) string {
	t.Helper()
	dir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// Run analyzes the given testdata packages and reports every mismatch
// between findings and // want expectations as a test error.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	ld := &testLoader{
		t:       t,
		src:     filepath.Join(testdata, "src"),
		fset:    token.NewFileSet(),
		loaded:  make(map[string]*loadedPkg),
		facts:   analysis.NewFacts(),
		running: make(map[string]bool),
	}
	for _, path := range pkgPaths {
		ld.load(path)
	}
	// Every package is type-checked before any is analyzed, so a pass sees
	// the whole testdata module; analysis then runs in dependency order,
	// so facts flow forward.
	module := &analysis.Module{}
	for _, pkg := range ld.order {
		module.Packages = append(module.Packages, pkg.input)
		pkg.input.Module = module
	}
	for _, pkg := range ld.order {
		findings, err := analysis.RunPackage(pkg.input, []*analysis.Analyzer{a}, ld.facts)
		if err != nil {
			t.Fatal(err)
		}
		pkg.findings = findings
	}
	for _, path := range pkgPaths {
		checkWants(t, ld.fset, ld.loaded[path])
	}
}

type loadedPkg struct {
	path     string
	files    []*ast.File
	input    *analysis.Package
	findings []analysis.Finding
}

type testLoader struct {
	t       *testing.T
	src     string
	fset    *token.FileSet
	loaded  map[string]*loadedPkg
	imp     types.Importer // export-data importer for non-testdata imports
	facts   *analysis.Facts
	running map[string]bool
	order   []*loadedPkg // dependency order: imports before importers
}

// load parses and type-checks one testdata package (and, recursively, the
// testdata packages it imports — those first).
func (l *testLoader) load(path string) *loadedPkg {
	l.t.Helper()
	if pkg, ok := l.loaded[path]; ok {
		return pkg
	}
	if l.running[path] {
		l.t.Fatalf("import cycle through testdata package %q", path)
	}
	l.running[path] = true
	defer delete(l.running, path)

	dir := filepath.Join(l.src, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		l.t.Fatalf("loading testdata package %q: %v", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		file, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			l.t.Fatal(err)
		}
		files = append(files, file)
	}
	if len(files) == 0 {
		l.t.Fatalf("testdata package %q has no Go files", path)
	}

	conf := types.Config{Importer: importerFunc(func(ipath string) (*types.Package, error) {
		if l.isTestdata(ipath) {
			return l.load(ipath).input.Pkg, nil
		}
		return l.external().Import(ipath)
	})}
	info := load.NewInfo()
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		l.t.Fatalf("type-checking testdata package %q: %v", path, err)
	}

	relPath := func(pos token.Pos) string {
		file := l.fset.Position(pos).Filename
		if rel, err := filepath.Rel(l.src, file); err == nil {
			return filepath.ToSlash(rel)
		}
		return file
	}
	pkg := &loadedPkg{path: path, files: files, input: &analysis.Package{
		Fset:    l.fset,
		Files:   files,
		Pkg:     tpkg,
		Info:    info,
		RelPath: relPath,
	}}
	l.loaded[path] = pkg
	l.order = append(l.order, pkg)
	return pkg
}

func (l *testLoader) isTestdata(path string) bool {
	fi, err := os.Stat(filepath.Join(l.src, filepath.FromSlash(path)))
	return err == nil && fi.IsDir()
}

// external lazily builds the export-data importer for everything the
// testdata tree imports from outside itself (stdlib and this module).
func (l *testLoader) external() types.Importer {
	l.t.Helper()
	if l.imp != nil {
		return l.imp
	}
	// Collect every non-testdata import in the whole testdata tree so one
	// `go list` serves the run.
	seen := make(map[string]bool)
	var external []string
	filepath.WalkDir(l.src, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.ImportsOnly)
		if err != nil {
			return nil
		}
		for _, imp := range file.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if !seen[ipath] && !l.isTestdata(ipath) {
				seen[ipath] = true
				external = append(external, ipath)
			}
		}
		return nil
	})
	exports := make(map[string]string)
	if len(external) > 0 {
		pkgs, err := load.ListExports(external)
		if err != nil {
			l.t.Fatal(err)
		}
		exports = pkgs
	}
	l.imp = load.NewExportImporter(l.fset, exports)
	return l.imp
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// wantRe matches one backquoted expectation within a // want comment.
var wantRe = regexp.MustCompile("`([^`]+)`")

// checkWants diffs the package's findings against its // want comments.
func checkWants(t *testing.T, fset *token.FileSet, pkg *loadedPkg) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, file := range pkg.files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				// The marker may open the comment or trail other text (an
				// //hbvet:allow under test, say): one // comment is all a Go
				// line gets, so expectations must be able to share it.
				i := strings.Index(c.Text, "// want ")
				if i < 0 {
					continue
				}
				text := c.Text[i+len("// want "):]
				pos := fset.Position(c.Slash)
				k := key{pos.Filename, pos.Line}
				for _, m := range wantRe.FindAllStringSubmatch(text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants[k] = append(wants[k], re)
				}
				if len(wants[k]) == 0 {
					t.Errorf("%s:%d: // want comment with no backquoted regexp", pos.Filename, pos.Line)
				}
			}
		}
	}

	got := make(map[key][]analysis.Finding)
	for _, f := range pkg.findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		got[k] = append(got[k], f)
	}

	var keys []key
	for k := range wants {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := wants[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].file != keys[j].file {
			return keys[i].file < keys[j].file
		}
		return keys[i].line < keys[j].line
	})

	for _, k := range keys {
		expected, found := wants[k], got[k]
		matched := make([]bool, len(found))
		for _, re := range expected {
			ok := false
			for i, f := range found {
				if !matched[i] && re.MatchString(f.Message) {
					matched[i] = true
					ok = true
					break
				}
			}
			if !ok {
				t.Errorf("%s:%d: no finding matching %q (have %s)", k.file, k.line, re, messages(found))
			}
		}
		for i, f := range found {
			if !matched[i] {
				t.Errorf("%s:%d: unexpected finding: %s: %s", k.file, k.line, f.Analyzer, f.Message)
			}
		}
	}
}

func messages(fs []analysis.Finding) string {
	if len(fs) == 0 {
		return "none"
	}
	var b strings.Builder
	for i, f := range fs {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%q", f.Message)
	}
	return b.String()
}
