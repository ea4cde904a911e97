// Package load type-checks this module's packages for hbvet without
// golang.org/x/tools: `go list -deps -export -json` names every package
// in dependency order and builds gc export data for the dependencies, so
// module packages can be parsed and checked from source while imports —
// stdlib and module alike — resolve instantly from export files.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one type-checked module package, in dependency order.
type Package struct {
	ImportPath string
	Dir        string
	// Requested is true when the package matched the load patterns itself
	// (rather than riding along as a dependency loaded for facts).
	Requested bool
	Files     []*ast.File
	Pkg       *types.Package
	Info      *types.Info
}

// Program is the loaded slice of the module.
type Program struct {
	Fset      *token.FileSet
	ModuleDir string
	// Packages holds the module's packages in dependency order: every
	// package appears after all of its module dependencies.
	Packages []*Package
}

// RelPath renders pos as a module-relative path (the form seam patterns
// and findings use); outside the module it falls back to the raw path.
func (p *Program) RelPath(pos token.Pos) string {
	file := p.Fset.Position(pos).Filename
	if rel, err := filepath.Rel(p.ModuleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	ForTest    string
	Module     *struct {
		Path string
		Dir  string
	}
}

// goList runs `go list` in dir with the given arguments and decodes the
// JSON package stream.
func goList(dir string, args ...string) ([]listPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %s: decoding: %v", strings.Join(args, " "), err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

const jsonFields = "-json=ImportPath,Dir,Export,GoFiles,Standard,ForTest,Module"

// Load type-checks every package of the module that contains dir from
// source, whatever the patterns, and returns them in dependency order;
// the packages the patterns (resolved from dir) match are marked
// Requested. Loading the whole module lets an analyzer see every user of
// a package, so checking one package reports what checking all of them
// reports for it.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	modPath, err := modulePath(dir)
	if err != nil {
		return nil, err
	}
	deps, err := goList(dir, append([]string{"-deps", "-export", jsonFields, modPath + "/..."}, patterns...)...)
	if err != nil {
		return nil, err
	}
	requested, err := goList(dir, append([]string{jsonFields}, patterns...)...)
	if err != nil {
		return nil, err
	}
	want := make(map[string]bool, len(requested))
	for _, p := range requested {
		want[p.ImportPath] = true
	}

	exports := make(map[string]string)
	for _, p := range deps {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	imp := NewExportImporter(fset, exports)

	prog := &Program{Fset: fset}
	checked := make(map[string]*types.Package)
	for _, p := range deps {
		if p.Standard || p.Module == nil || p.ForTest != "" {
			continue
		}
		if prog.ModuleDir == "" {
			prog.ModuleDir = p.Module.Dir
		}
		pkg, err := checkPackage(fset, imp, p)
		if err != nil {
			return nil, err
		}
		pkg.Requested = want[p.ImportPath]
		checked[p.ImportPath] = pkg.Pkg
		// Later module packages must see this package's *source-checked*
		// types, not its export data, so fact keys (types.Func.FullName)
		// and syntax stay coherent within one run.
		imp.override(p.ImportPath, pkg.Pkg)
		prog.Packages = append(prog.Packages, pkg)
	}
	if len(prog.Packages) == 0 {
		return nil, fmt.Errorf("no module packages matched %v", patterns)
	}
	return prog, nil
}

// modulePath returns the path of the main module containing dir.
func modulePath(dir string) (string, error) {
	cmd := exec.Command("go", "list", "-m")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list -m: %v\n%s", err, stderr.String())
	}
	return strings.TrimSpace(string(out)), nil
}

// checkPackage parses and type-checks one listed package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, p listPkg) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		file, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, file)
	}
	conf := types.Config{Importer: imp}
	info := NewInfo()
	tpkg, err := conf.Check(p.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
	}
	return &Package{ImportPath: p.ImportPath, Dir: p.Dir, Files: files, Pkg: tpkg, Info: info}, nil
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// ListExports maps the given import paths (plus all their dependencies)
// to gc export-data files via the go command, compiling them into the
// build cache as needed. The analysistest harness uses it to resolve a
// testdata package's stdlib and module imports.
func ListExports(paths []string) (map[string]string, error) {
	pkgs, err := goList("", append([]string{"-deps", "-export", jsonFields}, paths...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// ExportImporter resolves imports from gc export data files (as produced
// by `go list -export`), with per-path overrides for packages already
// type-checked from source.
type ExportImporter struct {
	gc        types.Importer
	overrides map[string]*types.Package
}

// NewExportImporter returns an importer over path -> export-file map.
func NewExportImporter(fset *token.FileSet, exports map[string]string) *ExportImporter {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return &ExportImporter{
		gc:        importer.ForCompiler(fset, "gc", lookup),
		overrides: make(map[string]*types.Package),
	}
}

// override makes future imports of path resolve to pkg.
func (e *ExportImporter) override(path string, pkg *types.Package) { e.overrides[path] = pkg }

// Import implements types.Importer.
func (e *ExportImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := e.overrides[path]; ok {
		return pkg, nil
	}
	return e.gc.Import(path)
}
