// Package clockthread catches the “accepted the clock, forgot to use it”
// bug shape: a type stores an injected clock, yet one of its methods (or
// constructors) still reads the wall directly. PR 6 fixed exactly this
// class by hand when server deadlines ran on time.Now while the server
// carried a clock; this analyzer machine-checks it. The wallclock
// analyzer flags the same call sites generically — clockthread is the
// stricter companion: a site inside a clock-storing type needs its own
// //hbvet:allow clockthread justification, so a broad wallclock waiver
// cannot quietly cover the one place a clock was already at hand.
package clockthread

import (
	"go/ast"
	"go/types"

	"repro/tools/hbvet/internal/analysis"
	"repro/tools/hbvet/internal/passes/wallclock"
)

// Analyzer flags wall-clock calls inside clock-storing types.
var Analyzer = &analysis.Analyzer{
	Name:      "clockthread",
	Doc:       "flags types that store a Clock but whose methods or constructors call the wall clock directly",
	SeamFiles: []string{"clock/"},
	Run:       run,
}

func run(pass *analysis.Pass) error {
	// Named struct types that store a clock, with the field that does.
	clockField := make(map[*types.TypeName]string)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if field := st.Field(i); isClock(field.Type()) {
				clockField[tn] = field.Name()
				break
			}
		}
	}
	if len(clockField) == 0 {
		return nil
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			owner, role := ownerOf(pass, fd, clockField)
			if owner == nil {
				continue
			}
			field := clockField[owner]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if name, ok := wallclock.BannedFunc(pass.TypesInfo, id); ok {
					pass.Reportf(id.Pos(),
						"%s %s of %s calls %s directly, but %s already stores a clock in field %q — use the stored clock (or //hbvet:allow clockthread -- <reason>)",
						role, fd.Name.Name, owner.Name(), name, owner.Name(), field)
				}
				return true
			})
		}
	}
	return nil
}

// ownerOf resolves which clock-storing type fd belongs to: a method on it,
// or a constructor (a plain function returning it).
func ownerOf(pass *analysis.Pass, fd *ast.FuncDecl, owners map[*types.TypeName]string) (*types.TypeName, string) {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil, ""
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		if tn := namedOf(recv.Type()); tn != nil {
			if _, ok := owners[tn]; ok {
				return tn, "method"
			}
		}
		return nil, ""
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if tn := namedOf(results.At(i).Type()); tn != nil {
			if _, ok := owners[tn]; ok {
				return tn, "constructor"
			}
		}
	}
	return nil, ""
}

// namedOf unwraps pointers to the defining TypeName, if any.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// isClock reports whether t (possibly behind a pointer) is a clock: an
// interface whose method set includes Now() time.Time. Matching the shape
// rather than the named clock.Clock keeps the analyzer honest about
// the virtual clock, test fakes, and future clock interfaces alike.
func isClock(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		if m.Name() != "Now" {
			continue
		}
		sig := m.Type().(*types.Signature)
		if sig.Params().Len() != 0 || sig.Results().Len() != 1 {
			continue
		}
		if named := namedOf(sig.Results().At(0).Type()); named != nil &&
			named.Name() == "Time" && named.Pkg() != nil && named.Pkg().Path() == "time" {
			return true
		}
	}
	return false
}
