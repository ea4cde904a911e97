// Package pure holds the sans-I/O cores to their word. A file marked
// //hbvet:pure is a core: plain state and decisions that a shell drives,
// taking time, bytes and randomness as arguments (hbnet's relaycore.go,
// clientcore.go and servercore.go). Such a file may start no goroutine,
// touch no channel, select on nothing, and import none of sync,
// sync/atomic, context or repro/clock — the moment it does, it can block
// or race, and a test can no longer drive it on one goroutine.
package pure

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/tools/hbvet/internal/analysis"
)

// Analyzer flags concurrency and clocks in files marked //hbvet:pure.
var Analyzer = &analysis.Analyzer{
	Name: "pure",
	Doc:  "flags go statements, channels, select and sync/context/clock imports in files marked //hbvet:pure",
	Run:  run,
}

// forbidden are the imports a pure file may not have.
var forbidden = map[string]bool{"sync": true, "sync/atomic": true, "context": true, "repro/clock": true}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if !marked(file) {
			continue
		}
		for _, imp := range file.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); forbidden[path] {
				pass.Reportf(imp.Pos(), "//hbvet:pure file imports %s", path)
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "//hbvet:pure file starts a goroutine")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "//hbvet:pure file has a select statement")
			case *ast.ChanType:
				pass.Reportf(n.Pos(), "//hbvet:pure file has a channel type")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "//hbvet:pure file sends on a channel")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "//hbvet:pure file receives from a channel")
				}
			case *ast.RangeStmt:
				if isChan(pass.TypesInfo.TypeOf(n.X)) {
					pass.Reportf(n.Pos(), "//hbvet:pure file ranges over a channel")
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) == 1 && isChan(pass.TypesInfo.TypeOf(n.Args[0])) {
					if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin && id.Name == "close" {
						pass.Reportf(n.Pos(), "//hbvet:pure file closes a channel")
					}
				}
			}
			return true
		})
	}
	return nil
}

// marked reports whether the file carries the //hbvet:pure mark on a line
// of its own.
func marked(file *ast.File) bool {
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if rest, ok := strings.CutPrefix(c.Text, "//hbvet:pure"); ok && (rest == "" || rest[0] == ' ') {
				return true
			}
		}
	}
	return false
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}
