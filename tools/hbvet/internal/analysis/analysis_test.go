package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkFile type-checks one synthetic file and runs the given analyzers
// over it with a fresh fact store.
func checkFile(t *testing.T, src string, analyzers []*Analyzer) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p/p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := RunPackage(&Package{
		Fset:    fset,
		Files:   []*ast.File{file},
		Pkg:     pkg,
		Info:    info,
		RelPath: func(pos token.Pos) string { return fset.Position(pos).Filename },
	}, analyzers, NewFacts())
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

// reportAll is an analyzer that reports every return statement, so tests
// can steer findings onto chosen lines with plain Go syntax.
func reportAll(name string) *Analyzer {
	a := &Analyzer{Name: name, Doc: "test analyzer"}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if ret, ok := n.(*ast.ReturnStmt); ok {
					pass.Reportf(ret.Pos(), "return seen by %s", a.Name)
				}
				return true
			})
		}
		return nil
	}
	return a
}

func lines(fs []Finding) []int {
	var out []int
	for _, f := range fs {
		out = append(out, f.Pos.Line)
	}
	return out
}

func TestAllowTrailingCoversOwnLine(t *testing.T) {
	src := `package p
func a() int {
	return 1 //hbvet:allow test -- covered
}
func b() int {
	return 2
}
`
	fs := checkFile(t, src, []*Analyzer{reportAll("test")})
	if len(fs) != 1 || fs[0].Pos.Line != 6 {
		t.Fatalf("want only the uncovered return on line 6, got %v", lines(fs))
	}
}

func TestAllowStandaloneCoversNextLine(t *testing.T) {
	src := `package p
func a() int {
	//hbvet:allow test -- covers the next line
	return 1
}
`
	fs := checkFile(t, src, []*Analyzer{reportAll("test")})
	if len(fs) != 0 {
		t.Fatalf("want no findings, got %v", lines(fs))
	}
}

func TestAllowStackedStandalones(t *testing.T) {
	src := `package p
func a() int {
	//hbvet:allow test -- first of a stack
	//hbvet:allow other -- second of a stack
	return 1
}
`
	fs := checkFile(t, src, []*Analyzer{reportAll("test"), reportAll("other")})
	if len(fs) != 0 {
		t.Fatalf("want both analyzers silenced by the stack, got %v", lines(fs))
	}
}

func TestAllowScopedToNamedAnalyzer(t *testing.T) {
	src := `package p
func a() int {
	return 1 //hbvet:allow other -- names a different analyzer
}
`
	fs := checkFile(t, src, []*Analyzer{reportAll("test")})
	if len(fs) != 1 || fs[0].Analyzer != "test" {
		t.Fatalf("allow naming %q must not cover %q: %+v", "other", "test", fs)
	}
}

func TestAllowCommaList(t *testing.T) {
	src := `package p
func a() int {
	return 1 //hbvet:allow test,other -- one comment, two analyzers
}
`
	fs := checkFile(t, src, []*Analyzer{reportAll("test"), reportAll("other")})
	if len(fs) != 0 {
		t.Fatalf("comma list should cover both analyzers, got %+v", fs)
	}
}

func TestAllowMissingJustification(t *testing.T) {
	src := `package p
func a() int {
	return 1 //hbvet:allow test
}
`
	fs := checkFile(t, src, []*Analyzer{reportAll("test")})
	if len(fs) != 2 {
		t.Fatalf("want the finding plus the invalid-allow report, got %+v", fs)
	}
	var sawInvalid, sawFinding bool
	for _, f := range fs {
		switch f.Analyzer {
		case "allow":
			sawInvalid = true
			if !strings.Contains(f.Message, "missing its justification") {
				t.Errorf("invalid-allow message = %q", f.Message)
			}
		case "test":
			sawFinding = true
		}
	}
	if !sawInvalid || !sawFinding {
		t.Fatalf("want one 'allow' and one 'test' finding, got %+v", fs)
	}
}

func TestAllowMalformed(t *testing.T) {
	src := `package p
func a() int {
	return 1 //hbvet:allow test trailing junk
}
`
	fs := checkFile(t, src, []*Analyzer{reportAll("test")})
	if len(fs) != 2 {
		t.Fatalf("want the finding plus the malformed-allow report, got %+v", fs)
	}
	var sawMalformed bool
	for _, f := range fs {
		if f.Analyzer == "allow" && strings.Contains(f.Message, "malformed") {
			sawMalformed = true
		}
	}
	if !sawMalformed {
		t.Fatalf("want a malformed-allow report, got %+v", fs)
	}
}

func TestSeamFileFiltering(t *testing.T) {
	cases := []struct {
		patterns []string
		rel      string
		want     bool
	}{
		{[]string{"sim/"}, "sim/clock.go", true},
		{[]string{"sim/"}, "sim/nested/deep.go", true},
		{[]string{"sim/"}, "simnet/conn.go", false},
		{[]string{"clock/"}, "sim/machine.go", false},
	}
	for _, c := range cases {
		if got := seamFile(c.patterns, c.rel); got != c.want {
			t.Errorf("seamFile(%v, %q) = %v, want %v", c.patterns, c.rel, got, c.want)
		}
	}
}

func TestFactsFlowAcrossPackages(t *testing.T) {
	facts := NewFacts()
	facts.Set("hotpath", "(*repro/internal/ring.SP).Push", "marked")
	if _, ok := facts.Get("hotpath", "(*repro/internal/ring.SP).Push"); !ok {
		t.Fatal("fact written by a dependency pass must be readable")
	}
	if _, ok := facts.Get("wallclock", "(*repro/internal/ring.SP).Push"); ok {
		t.Fatal("facts must be namespaced per analyzer")
	}
}
