// Package analysis is the minimal go/analysis-shaped framework hbvet's
// analyzers run on. It exists because the container this repo builds in
// has no module cache or network — golang.org/x/tools is unavailable —
// so hbvet carries the few pieces of the framework it actually needs:
// an Analyzer/Pass pair over type-checked syntax, cross-package string
// facts, and the //hbvet:allow escape hatch shared by every analyzer.
//
// The escape hatch is a comment naming the analyzers it silences plus a
// mandatory justification:
//
//	conn.SetDeadline(time.Now().Add(d)) //hbvet:allow wallclock -- kernel deadline, not a loop wait
//
// A trailing allow covers its own line; an allow on a line of its own
// covers the next line. An allow without a justification (no “-- reason”)
// does not silence anything and is itself reported, so the annotation can
// never decay into a bare mute button.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	// SeamFiles are module-relative directories, each ending in “/”,
	// where this analyzer does not apply — the files whose entire purpose
	// is to touch what the analyzer forbids, like the wall-clock seam
	// itself.
	SeamFiles []string
	Run       func(*Pass) error
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// RelPath renders a position as the module-relative file path the seam
	// patterns and findings use.
	RelPath func(token.Pos) string
	// Facts is the cross-package fact store shared by every pass of a run;
	// packages are analyzed in dependency order, so facts written by a
	// dependency are visible here.
	Facts *Facts
	// Module is every package loaded for the run, this one included, for
	// the analyzers that must see who uses a package, not only what it
	// uses.
	Module *Module

	allows allowIndex
	diags  []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Allowed reports whether a justified //hbvet:allow comment naming this
// pass's analyzer covers pos. Analyzers that traverse (hotpath) consult it
// mid-run to prune an allowed call edge; plain site checks can just report
// and let the driver filter.
func (p *Pass) Allowed(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	return p.allows.covers(position.Filename, position.Line, p.Analyzer.Name)
}

// Diagnostic is one raw analyzer report, before seam and allow filtering.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is one filtered, reportable result.
type Finding struct {
	Analyzer string
	Pos      token.Position
	RelFile  string
	Message  string
}

// Package is the loaded, type-checked input RunPackage consumes. The
// loader (tools/hbvet/internal/load) and the analysistest harness both
// produce it.
type Package struct {
	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	Info    *types.Info
	RelPath func(token.Pos) string
	// Module is the whole run this package belongs to.
	Module *Module
}

// Module is every package of one run, in dependency order. It is built
// before any analyzer runs, so a pass sees its dependents as well as its
// dependencies.
type Module struct {
	Packages []*Package
	memo     map[string]any
}

// Memo returns the value build computes for key, calling build once per
// run: an index over the whole module is built by the first pass that
// needs it and shared by the rest.
func (m *Module) Memo(key string, build func() any) any {
	if v, ok := m.memo[key]; ok {
		return v
	}
	if m.memo == nil {
		m.memo = make(map[string]any)
	}
	v := build()
	m.memo[key] = v
	return v
}

// RunPackage runs the analyzers over one package, applies seam and allow
// filtering, and returns position-sorted findings. Invalid allow comments
// (no justification) are returned as findings of the pseudo-analyzer
// "allow".
func RunPackage(pkg *Package, analyzers []*Analyzer, facts *Facts) ([]Finding, error) {
	allows, invalid := collectAllows(pkg.Fset, pkg.Files)
	var findings []Finding
	for _, bad := range invalid {
		pos := pkg.Fset.Position(bad.pos)
		findings = append(findings, Finding{
			Analyzer: "allow",
			Pos:      pos,
			RelFile:  pkg.RelPath(bad.pos),
			Message:  bad.msg,
		})
	}
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
			RelPath:   pkg.RelPath,
			Facts:     facts,
			Module:    pkg.Module,
			allows:    allows,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Pkg.Path(), err)
		}
		for _, d := range pass.diags {
			rel := pkg.RelPath(d.Pos)
			if seamFile(a.SeamFiles, rel) {
				continue
			}
			position := pkg.Fset.Position(d.Pos)
			if allows.covers(position.Filename, position.Line, a.Name) {
				continue
			}
			findings = append(findings, Finding{Analyzer: a.Name, Pos: position, RelFile: rel, Message: d.Message})
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}

// seamFile reports whether rel lies under any seam directory.
func seamFile(dirs []string, rel string) bool {
	for _, dir := range dirs {
		if strings.HasPrefix(rel, dir) {
			return true
		}
	}
	return false
}

// Facts is the cross-package fact store: per-analyzer string key/value
// pairs written when a package is analyzed and read by its dependents.
// hbvet runs packages in dependency order, so the store needs no
// serialization format — it lives for one process.
type Facts struct {
	m map[string]map[string]string
}

// NewFacts returns an empty store.
func NewFacts() *Facts { return &Facts{m: make(map[string]map[string]string)} }

// Set records a fact under the analyzer's namespace.
func (f *Facts) Set(analyzer, key, value string) {
	if f.m[analyzer] == nil {
		f.m[analyzer] = make(map[string]string)
	}
	f.m[analyzer][key] = value
}

// Get reads a fact from the analyzer's namespace.
func (f *Facts) Get(analyzer, key string) (string, bool) {
	v, ok := f.m[analyzer][key]
	return v, ok
}

// allowIndex maps file -> line -> analyzer names allowed there.
type allowIndex map[string]map[int]map[string]bool

func (ai allowIndex) covers(file string, line int, analyzer string) bool {
	return ai[file][line][analyzer]
}

func (ai allowIndex) add(file string, line int, analyzer string) {
	if ai[file] == nil {
		ai[file] = make(map[int]map[string]bool)
	}
	if ai[file][line] == nil {
		ai[file][line] = make(map[string]bool)
	}
	ai[file][line][analyzer] = true
}

type invalidAllow struct {
	pos token.Pos
	msg string
}

// allowRe matches one allow comment: analyzer names, then a mandatory
// “-- justification”. The justification group is separate so its absence
// can be reported precisely.
var allowRe = regexp.MustCompile(`^//hbvet:allow\s+([A-Za-z0-9_,]+)\s*(?:--\s*(\S.*))?$`)

// collectAllows indexes every //hbvet:allow comment in the files. A
// trailing comment covers its own line; a standalone comment line covers
// the line after it (stacked allows chain: each standalone allow also
// covers itself, so a pair above one statement works). Allows without a
// justification cover nothing and are returned as invalid.
func collectAllows(fset *token.FileSet, files []*ast.File) (allowIndex, []invalidAllow) {
	idx := make(allowIndex)
	var invalid []invalidAllow
	for _, f := range files {
		// endLine[n] is true when a non-comment token ends on line n —
		// used to tell a trailing allow from a standalone one.
		endLine := make(map[int]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if _, isComment := n.(*ast.Comment); isComment {
				return false
			}
			if _, isGroup := n.(*ast.CommentGroup); isGroup {
				return false
			}
			endLine[fset.Position(n.End()).Line] = true
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//hbvet:allow") {
					continue
				}
				m := allowRe.FindStringSubmatch(c.Text)
				if m == nil {
					invalid = append(invalid, invalidAllow{c.Slash,
						"malformed //hbvet:allow comment (want //hbvet:allow <analyzer>[,<analyzer>] -- <justification>)"})
					continue
				}
				if m[2] == "" {
					invalid = append(invalid, invalidAllow{c.Slash,
						fmt.Sprintf("//hbvet:allow %s is missing its justification (append “-- <reason>”); it silences nothing", m[1])})
					continue
				}
				pos := fset.Position(c.Slash)
				covered := pos.Line
				if !endLine[pos.Line] {
					// Standalone comment: it shields the line after its whole
					// comment group, so stacked allows (one per analyzer) all
					// land on the same statement.
					covered = fset.Position(cg.End()).Line + 1
				}
				for _, name := range strings.Split(m[1], ",") {
					idx.add(pos.Filename, pos.Line, name)
					idx.add(pos.Filename, covered, name)
				}
			}
		}
	}
	return idx, invalid
}
