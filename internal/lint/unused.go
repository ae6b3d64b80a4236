package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The unused pass keeps the internal API no larger than the program that
// calls it. A declaration under u1/internal/ — package-level func, type,
// const or var, every method, every exported struct field — is a finding
// when no non-test file of the module uses it. References come from every
// package the loader holds (LoadPatterns loads the whole module, benchmark/,
// cmd/ and examples/ included), so linting a subset reports exactly the
// module-wide findings for that subset. Also counted as used: a method that
// makes its type satisfy an interface the module's code spells or calls
// through; String, Error and the JSON/text marshalers, which the standard
// library finds by reflection; a tagged field; every field of a struct built
// with an unkeyed literal. A declaration kept on purpose carries
// `//u1:allow unused <reason>`.

var unusedPass = &Pass{
	Name:  "unused",
	Allow: "unused",
	Doc:   "no declaration under internal/ that only tests (or nothing) use; references come from the whole module",
	Run:   runUnused,
}

// reflectedMethods are found by the standard library through interfaces the
// module never names, so they count as used.
var reflectedMethods = map[string]bool{
	"String": true, "Error": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
}

func runUnused(p *Package, report reportFunc) {
	if !strings.HasPrefix(p.Path, "u1/internal/") {
		return
	}
	used := p.loader.usedObjects()
	check := func(id *ast.Ident, what, name string) {
		if obj := p.Info.Defs[id]; id.Name != "_" && obj != nil && !used[obj] {
			report(id, "%s %s has no use outside tests: delete it, move it into a _test.go file, or annotate `//u1:allow unused <reason>`", what, name)
		}
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case d.Recv != nil:
					if !reflectedMethods[d.Name.Name] {
						check(d.Name, "method", d.Name.Name)
					}
				case d.Name.Name != "init" && d.Name.Name != "main":
					check(d.Name, "func", d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						check(s.Name, "type", s.Name.Name)
						if st, ok := s.Type.(*ast.StructType); ok {
							for _, field := range st.Fields.List {
								if field.Tag != nil {
									continue
								}
								for _, name := range field.Names {
									if name.IsExported() {
										check(name, "field", s.Name.Name+"."+name.Name)
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							check(name, d.Tok.String(), name.Name)
						}
					}
				}
			}
		}
	}
}

// usedObjects returns every object a non-test file of a loaded package uses,
// by the rules in the pass comment. Uses inside a method's receiver type do
// not count, so a type is not kept alive by its own methods.
func (l *Loader) usedObjects() map[types.Object]bool {
	if l.used != nil && l.usedOver == len(l.pkgs) {
		return l.used
	}
	used := make(map[types.Object]bool)
	ifaces := make(map[string]*types.Interface)
	for _, pkg := range l.pkgs {
		receivers := make(map[*ast.Ident]bool)
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv != nil {
						ast.Inspect(n.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
					}
				case *ast.CompositeLit:
					tv := pkg.Info.Types[n]
					if tv.Type == nil || len(n.Elts) == 0 {
						break
					}
					st, ok := tv.Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
						for i := range st.NumFields() {
							used[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
		for id, obj := range pkg.Info.Uses {
			if !receivers[id] {
				used[origin(obj)] = true
			}
			collectInterfaces(obj.Type(), ifaces)
		}
		for _, tv := range pkg.Info.Types {
			collectInterfaces(tv.Type, ifaces)
		}
	}
	// A method an interface call can reach is used.
	for _, pkg := range l.pkgs {
		scope := pkg.Pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 || types.IsInterface(n) {
				continue
			}
			ptr := types.NewPointer(n)
			for _, iface := range ifaces {
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := range iface.NumMethods() {
					if m, _, _ := types.LookupFieldOrMethod(ptr, false, n.Obj().Pkg(), iface.Method(i).Name()); m != nil {
						used[origin(m)] = true
					}
				}
			}
		}
	}
	l.used, l.usedOver = used, len(l.pkgs)
	return used
}

// origin maps an object of an instantiated generic type back to the
// declaration it came from.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// collectInterfaces adds t to ifaces when it is a method-bearing interface,
// and does the same for a signature's parameters and results: the interfaces
// the code spells or calls through.
func collectInterfaces(t types.Type, ifaces map[string]*types.Interface) {
	if sig, ok := t.(*types.Signature); ok {
		for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
			for i := range tuple.Len() {
				collectInterfaces(tuple.At(i).Type(), ifaces)
			}
		}
		return
	}
	if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && iface.IsMethodSet() {
		ifaces[types.TypeString(t, nil)] = iface
	}
}
