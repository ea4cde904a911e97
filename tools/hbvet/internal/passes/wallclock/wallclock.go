// Package wallclock flags direct wall-clock time outside the stack's
// clock seams. Every loop in this codebase is supposed to run on the
// injected clock.Clock and wait through clock.AfterFunc or clock.SleepCtx —
// that is what lets simnet's scenario matrix drive the whole stack under
// virtual time — so a bare time.Sleep or context.WithTimeout is a hole in
// the simulation's coverage, invisible to the compiler and to -race. The
// allowed seam is package clock itself, which holds both the wall and the
// virtual implementation, and sites annotated //hbvet:allow wallclock --
// <reason>: genuine process edges like seeding an RNG or bounding a real
// TCP dial.
package wallclock

import (
	"go/ast"
	"go/types"

	"repro/tools/hbvet/internal/analysis"
)

// Analyzer flags direct wall-clock calls outside the clock seams.
var Analyzer = &analysis.Analyzer{
	Name:      "wallclock",
	Doc:       "flags time.Now/Sleep/After/... and context.WithTimeout/WithDeadline outside the clock seams",
	SeamFiles: []string{"clock/"},
	Run:       run,
}

// Banned maps package path -> function names that read or schedule on the
// wall clock. Exported so the clockthread analyzer applies the identical
// notion of “wall-clock call”.
var Banned = map[string]map[string]bool{
	"time": {
		"Now": true, "Sleep": true, "After": true, "Tick": true,
		"NewTicker": true, "NewTimer": true, "AfterFunc": true,
		"Since": true, "Until": true,
	},
	"context": {
		"WithTimeout": true, "WithDeadline": true,
		"WithTimeoutCause": true, "WithDeadlineCause": true,
	},
}

// BannedFunc resolves id (in use position) to a banned wall-clock
// function, returning its display name like "time.Now". Matching every
// identifier use (not just call expressions) also catches time.Now
// passed around as a function value.
func BannedFunc(info *types.Info, id *ast.Ident) (string, bool) {
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	// Methods share names with the banned package functions —
	// (time.Time).After is arithmetic, time.After is a wall-clock wait.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return "", false
	}
	if !Banned[fn.Pkg().Path()][fn.Name()] {
		return "", false
	}
	return fn.Pkg().Name() + "." + fn.Name(), true
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if name, ok := BannedFunc(pass.TypesInfo, id); ok {
				pass.Reportf(id.Pos(),
					"direct %s call outside a clock seam: thread the injected clock.Clock (clock.Now/AfterFunc/SleepCtx) or annotate //hbvet:allow wallclock -- <reason>",
					name)
			}
			return true
		})
	}
	return nil
}
