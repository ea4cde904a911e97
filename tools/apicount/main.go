// Command apicount prints, per package directory, the sizes ROADMAP
// reports like any other result: non-test source lines, exported
// identifiers (top-level declarations plus methods on exported types), and
// how many of those the //hbvet:api marks keep without a user in another
// package (see tools/hbvet's deadapi pass). Its test holds the module's
// surface to testdata/surface.golden, adding the //hbvet:allow waivers of
// every file, tests included.
//
//	go run ./tools/apicount heartbeat hbnet observer cmd/hbmon
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

func main() {
	var total surface
	for _, dir := range os.Args[1:] {
		n, err := measure(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apicount:", err)
			os.Exit(1)
		}
		fmt.Printf("%-20s %6d lines %4d exported %3d api-marked\n", dir, n.lines, n.exported, n.marks)
		total.lines, total.exported, total.marks = total.lines+n.lines, total.exported+n.exported, total.marks+n.marks
	}
	fmt.Printf("%-20s %6d lines %4d exported %3d api-marked\n", "total", total.lines, total.exported, total.marks)
}

// surface is one package directory's size: lines, exported identifiers
// and //hbvet:api marks of its non-test files, and //hbvet:allow waivers
// in all of them.
type surface struct {
	lines, exported, marks, allows int
}

func measure(dir string) (surface, error) {
	var n surface
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
	if err != nil {
		return n, err
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			n.allows += directives(f, "//hbvet:allow")
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			n.lines += fset.File(f.Pos()).LineCount()
			n.exported += exported(f)
			n.marks += directives(f, "//hbvet:api")
		}
	}
	return n, nil
}

// directives counts f's comments that are the directive prefix names.
func directives(f *ast.File, prefix string) (n int) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, prefix) {
				n++
			}
		}
	}
	return n
}

// exported counts f's exported top-level identifiers and the exported
// methods of its exported types.
func exported(f *ast.File) (n int) {
	count := func(ids ...*ast.Ident) {
		for _, id := range ids {
			if id.IsExported() {
				n++
			}
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil || receiverExported(d.Recv.List[0].Type) {
				count(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					count(spec.Name)
				case *ast.ValueSpec:
					count(spec.Names...)
				}
			}
		}
	}
	return n
}

func receiverExported(t ast.Expr) bool {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return false
		}
	}
}
