// Package deadapi defines the hbvet analyzer that keeps the public
// surface honest: every exported identifier of a public package is used
// from a non-test file of another package, or says in writing why it
// stays.
//
// The scope is the exported package-level identifiers, and the exported
// methods of exported types, of every package whose import path has no
// "internal" element and which is not a main package. Uses are
// type-checked, gathered from every non-test file of the module:
//
//   - an identifier or selector resolving to the object;
//   - a value of a type appearing in another package (a constructor's
//     result is enough to reach its type);
//   - a method satisfying an interface method that some package calls, or
//     a method of a standard-library interface the module's code passes
//     values as;
//   - String and Error, which fmt and errors call on every value.
//
// A use from the identifier's own package, or from a _test.go file, does
// not count: a godoc Example keeps nothing alive. An identifier stays
// without a use when its doc comment carries a mark with a reason, which
// names a paper section, a README or ARCHITECTURE tour, or a user need:
//
//	// WithShedLag bounds how far a subscriber may fall behind ...
//	//
//	//hbvet:api -- user need: a relay operator sets the shed bound
//	func WithShedLag(n uint64) RelayOption
//
// A mark on a type covers the type's methods. A mark without a reason
// keeps nothing and is itself reported, as is a mark on an identifier
// that is used after all, so the marks stay a list of real decisions.
package deadapi

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"repro/tools/hbvet/internal/analysis"
)

// Analyzer is the deadapi check.
var Analyzer = &analysis.Analyzer{
	Name: "deadapi",
	Doc:  "every exported identifier of a public package is used from another package's non-test file, or is marked //hbvet:api -- <reason>",
	Run:  run,
}

// markRe matches a mark line; the reason is the text after "--".
var markRe = regexp.MustCompile(`^//hbvet:api(?:\s+--\s*(\S.*))?$`)

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg) {
		return nil
	}
	idx := pass.Module.Memo("deadapi.index", func() any { return buildIndex(pass.Module) }).(*index)

	var decls []ast.Decl
	for _, file := range pass.Files {
		if !isTestFile(pass.Fset, file) {
			decls = append(decls, file.Decls...)
		}
	}
	// Types and values first: a method inherits its type's mark, and may be
	// declared before its type.
	typeMarks := make(map[*types.TypeName]token.Pos)
	for _, d := range decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		if gd.Tok == token.CONST || gd.Tok == token.VAR {
			checkValues(pass, idx, gd)
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			m := findMark(pass, ts.Doc, gd.Doc)
			typeMarks[tn] = m
			switch {
			case !m.IsValid():
				report(pass, idx, ts.Name, tn, "type "+tn.Name())
			case idx.used[tn] && allMethodsUsed(idx, tn):
				pass.Reportf(m, "type %s and all its exported methods are used from other packages; drop its //hbvet:api mark", tn.Name())
			}
		}
	}
	for _, d := range decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || !fd.Name.IsExported() {
			continue
		}
		fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
		if !ok {
			continue
		}
		m := findMark(pass, fd.Doc)
		if fd.Recv == nil {
			check(pass, idx, fd.Name, fn, "func "+fn.Name(), m)
			continue
		}
		tn := receiverType(fn)
		if tn == nil || !tn.Exported() {
			continue
		}
		if typeMarks[tn].IsValid() && !m.IsValid() {
			continue // covered by the type's mark
		}
		check(pass, idx, fd.Name, fn, "method "+tn.Name()+"."+fn.Name(), m)
	}
	return nil
}

// checkValues checks a const or var declaration. A mark in a spec's own
// doc keeps that spec's names. A mark on a parenthesized group keeps every
// name in the group (an enumeration is decided as one), and is stale only
// when all of them are used.
func checkValues(pass *analysis.Pass, idx *index, d *ast.GenDecl) {
	group := token.NoPos
	if d.Lparen.IsValid() {
		group = findMark(pass, d.Doc)
	}
	allUsed := true
	for _, spec := range d.Specs {
		vs := spec.(*ast.ValueSpec)
		doc := vs.Doc
		if !d.Lparen.IsValid() {
			doc = d.Doc
		}
		m := findMark(pass, doc)
		for _, name := range vs.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil || !name.IsExported() {
				continue
			}
			if !idx.objUsed(obj) {
				allUsed = false
			}
			if group.IsValid() && !m.IsValid() {
				continue // covered by the group's mark
			}
			check(pass, idx, name, obj, d.Tok.String()+" "+name.Name, m)
		}
	}
	if group.IsValid() && allUsed {
		pass.Reportf(group, "every name in this %s group is used from another package; drop its //hbvet:api mark", d.Tok)
	}
}

// check reports obj (described as what) when it is unused and unmarked,
// or when its mark is stale because another package uses it after all.
func check(pass *analysis.Pass, idx *index, id *ast.Ident, obj types.Object, what string, m token.Pos) {
	if m.IsValid() {
		if idx.objUsed(obj) {
			pass.Reportf(m, "%s is used from another package; drop its //hbvet:api mark", what)
		}
		return
	}
	report(pass, idx, id, obj, what)
}

// report flags obj unless another package uses it.
func report(pass *analysis.Pass, idx *index, id *ast.Ident, obj types.Object, what string) {
	if idx.objUsed(obj) {
		return
	}
	how := "no other package uses it"
	if idx.testUsed[obj] {
		how = "only tests use it from other packages"
	}
	pass.Reportf(id.Pos(), "exported %s: %s; delete it or mark it //hbvet:api -- <reason>", what, how)
}

// findMark returns the position of the first //hbvet:api line in the doc
// comments, in order (a spec's own doc before its declaration group's), or
// token.NoPos. A mark that gives no reason is reported and keeps nothing:
// findMark returns token.NoPos for it.
func findMark(pass *analysis.Pass, docs ...*ast.CommentGroup) token.Pos {
	for _, doc := range docs {
		if doc == nil {
			continue
		}
		for _, c := range doc.List {
			if !strings.HasPrefix(c.Text, "//hbvet:api") {
				continue
			}
			mm := markRe.FindStringSubmatch(strings.TrimSpace(c.Text))
			if mm == nil || mm[1] == "" {
				pass.Reportf(c.Slash, "//hbvet:api mark is missing its reason (write “//hbvet:api -- <paper section, tour or user need>”); it keeps nothing")
				return token.NoPos
			}
			return c.Slash
		}
	}
	return token.NoPos
}

func allMethodsUsed(idx *index, tn *types.TypeName) bool {
	named, ok := tn.Type().(*types.Named)
	if !ok {
		return true
	}
	for i := 0; i < named.NumMethods(); i++ {
		if m := named.Method(i); m.Exported() && !idx.methodUsed(m) {
			return false
		}
	}
	return true
}

// receiverType returns the named type a method is declared on.
func receiverType(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// inScope reports whether pkg's exports are public API: not a main
// package, and no "internal" element in its path.
func inScope(pkg *types.Package) bool {
	if pkg.Name() == "main" {
		return false
	}
	for _, elem := range strings.Split(pkg.Path(), "/") {
		if elem == "internal" {
			return false
		}
	}
	return true
}

func isTestFile(fset *token.FileSet, file *ast.File) bool {
	return strings.HasSuffix(fset.File(file.Pos()).Name(), "_test.go")
}

// index is what the whole module uses of each package.
type index struct {
	// used holds objects referenced, or types whose values appear, in a
	// non-test file of a package other than their own.
	used map[types.Object]bool
	// testUsed holds the same, seen only from _test.go files.
	testUsed map[types.Object]bool
	// ifaceMethods holds the interface methods the module calls, from any
	// package, plus every method of each standard-library interface its
	// values are passed as, by name.
	ifaceMethods map[string][]*types.Interface
}

func (idx *index) objUsed(obj types.Object) bool {
	if fn, ok := obj.(*types.Func); ok && receiverType(fn) != nil {
		return idx.methodUsed(fn)
	}
	return idx.used[obj]
}

func (idx *index) methodUsed(fn *types.Func) bool {
	if idx.used[fn] || fn.Name() == "String" || fn.Name() == "Error" {
		return true
	}
	tn := receiverType(fn)
	if tn == nil {
		return false
	}
	t := tn.Type()
	for _, iface := range idx.ifaceMethods[fn.Name()] {
		if types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface) {
			return true
		}
	}
	return false
}

func buildIndex(m *analysis.Module) *index {
	idx := &index{
		used:         make(map[types.Object]bool),
		testUsed:     make(map[types.Object]bool),
		ifaceMethods: make(map[string][]*types.Interface),
	}
	inModule := make(map[*types.Package]bool, len(m.Packages))
	for _, p := range m.Packages {
		inModule[p.Pkg] = true
	}
	type ifaceMethod struct {
		iface *types.Interface
		name  string
	}
	seen := make(map[ifaceMethod]bool)
	addIface := func(iface *types.Interface, name string) {
		if !seen[ifaceMethod{iface, name}] {
			seen[ifaceMethod{iface, name}] = true
			idx.ifaceMethods[name] = append(idx.ifaceMethods[name], iface)
		}
	}

	for _, p := range m.Packages {
		testFile := make(map[string]bool)
		for _, f := range p.Files {
			if isTestFile(p.Fset, f) {
				testFile[p.Fset.File(f.Pos()).Name()] = true
			}
		}
		inTest := func(pos token.Pos) bool { return testFile[p.Fset.File(pos).Name()] }
		use := func(pos token.Pos, obj types.Object) {
			obj = origin(obj)
			if obj == nil || obj.Pkg() == nil || obj.Pkg() == p.Pkg {
				return
			}
			if inTest(pos) {
				idx.testUsed[obj] = true
			} else {
				idx.used[obj] = true
			}
		}
		ifaceCall := func(pos token.Pos, obj types.Object) {
			fn, ok := obj.(*types.Func)
			if !ok || inTest(pos) {
				return
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					addIface(iface, fn.Name())
				}
			}
		}
		for id, obj := range p.Info.Uses {
			use(id.Pos(), obj)
			ifaceCall(id.Pos(), obj)
		}
		for sel, s := range p.Info.Selections {
			use(sel.Sel.Pos(), s.Obj())
			ifaceCall(sel.Sel.Pos(), s.Obj())
		}
		for expr, tv := range p.Info.Types {
			if tv.Type == nil {
				continue
			}
			pos := expr.Pos()
			walkType(tv.Type, make(map[types.Type]bool), func(n *types.Named) {
				use(pos, n.Obj())
				if inTest(pos) || inModule[n.Obj().Pkg()] || n.Obj().Pkg() == nil {
					return
				}
				if iface, ok := n.Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumMethods(); i++ {
						addIface(iface, iface.Method(i).Name())
					}
				}
			})
		}
	}
	return idx
}

// walkType calls visit for every named type t is built from: pointers,
// containers, tuples, signatures and type arguments, not struct fields or
// the named types' own underlying types.
func walkType(t types.Type, seen map[types.Type]bool, visit func(*types.Named)) {
	if seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		visit(t)
		if args := t.TypeArgs(); args != nil {
			for i := 0; i < args.Len(); i++ {
				walkType(args.At(i), seen, visit)
			}
		}
	case *types.Pointer:
		walkType(t.Elem(), seen, visit)
	case *types.Slice:
		walkType(t.Elem(), seen, visit)
	case *types.Array:
		walkType(t.Elem(), seen, visit)
	case *types.Chan:
		walkType(t.Elem(), seen, visit)
	case *types.Map:
		walkType(t.Key(), seen, visit)
		walkType(t.Elem(), seen, visit)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			walkType(t.At(i).Type(), seen, visit)
		}
	case *types.Signature:
		walkType(t.Params(), seen, visit)
		walkType(t.Results(), seen, visit)
	}
}

// origin maps an instantiated generic object back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	case *types.TypeName:
		if n, ok := o.Type().(*types.Named); ok && n.Obj() == o {
			return n.Origin().Obj()
		}
	}
	return obj
}
