// Command apicount prints, per package directory, the two sizes ROADMAP
// reports like any other result: non-test source lines, and exported
// identifiers (top-level declarations plus methods on exported types).
//
//	go run ./tools/apicount hbnet hbshm observer internal/cursor scheduler cmd/hbmon
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"strings"
)

func main() {
	var lines, idents int
	for _, dir := range os.Args[1:] {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "apicount:", err)
			os.Exit(1)
		}
		l, n := 0, 0
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				l += fset.File(f.Pos()).LineCount()
				n += exported(f)
			}
		}
		fmt.Printf("%-20s %6d lines %4d exported\n", dir, l, n)
		lines, idents = lines+l, idents+n
	}
	fmt.Printf("%-20s %6d lines %4d exported\n", "total", lines, idents)
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
