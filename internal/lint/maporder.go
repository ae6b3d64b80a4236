package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The maporder pass catches Go map iteration order escaping into an ordered
// sink — the exact bug class the journal-by-resulting-state replication
// stream and the sorted-state ShardFingerprint contracts exist to prevent. A
// `range` over a map is fine when the body is order-independent (counting,
// deleting, rebuilding another map); it is a finding when the body appends
// to a slice that outlives the loop, writes journal/WAL records, or feeds a
// hash. The sanctioned fix — collect the keys, sort, then iterate — is
// recognized and suppressed: an append whose target is later passed to a
// sort/slices call in the same function is the collect-then-sort idiom, not
// a leak.

var maporderPass = &Pass{
	Name:  "maporder",
	Allow: "maporder",
	Doc:   "map iteration order must not escape into slices, journals, or hashes",
	Run:   runMaporder,
}

func runMaporder(p *Package, report reportFunc) {
	if !strings.HasPrefix(p.Path, "u1/internal/") {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncMaporder(p, fd, report)
		}
	}
}

// checkFuncMaporder inspects one function: find map ranges, find ordered
// sinks in their bodies, suppress collect-then-sort.
func checkFuncMaporder(p *Package, fd *ast.FuncDecl, report reportFunc) {
	// First collect every sort call in the function with the textual form of
	// its first argument, so append targets can be matched against them.
	type sortCall struct {
		target string
		pos    token.Pos
	}
	var sorts []sortCall
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := p.Info.Uses[id].(*types.PkgName)
		if !ok || len(call.Args) == 0 {
			return true
		}
		switch pn.Imported().Path() {
		case "sort", "slices":
			sorts = append(sorts, sortCall{sortTargetString(call.Args[0]), call.Pos()})
		}
		return true
	})
	sortedLater := func(target string, after token.Pos) bool {
		for _, s := range sorts {
			if s.pos >= after && s.target == target {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		mapDesc := types.ExprString(rng.X)
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			// Sink 1: append to a slice that outlives the loop. Suppressed
			// when the target is sorted later (collect-then-sort).
			if id, ok := call.Fun.(*ast.Ident); ok {
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin && id.Name == "append" && len(call.Args) > 0 {
					target := types.ExprString(call.Args[0])
					if escapesLoop(p, call.Args[0], rng) && !sortedLater(target, call.Pos()) {
						report(call, "append to %s inside `range %s` leaks map iteration order; collect then sort, or iterate sorted keys", target, mapDesc)
					}
				}
				return true
			}
			// Sinks 2–4: order-sensitive method calls.
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if why := orderedSink(p, sel); why != "" {
					report(call, "%s inside `range %s` %s; iterate sorted keys instead", types.ExprString(call.Fun), mapDesc, why)
				}
			}
			return true
		})
		return true
	})
}

// sortTargetString renders a sort call's first argument for matching against
// append targets, unwrapping slice/index expressions so `sort.Slice(out[1:],
// …)` matches an append to `out`.
func sortTargetString(e ast.Expr) string {
	for done := false; !done; {
		switch x := e.(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			done = true
		}
	}
	return types.ExprString(e)
}

// escapesLoop reports whether the append target is rooted outside the range
// statement (so the loop's iteration order persists beyond it). The root of a
// selector/index chain decides: appending to a field of a struct created
// inside the loop body stays loop-local and cannot leak iteration order.
func escapesLoop(p *Package, target ast.Expr, rng *ast.RangeStmt) bool {
	for done := false; !done; {
		switch x := target.(type) {
		case *ast.SelectorExpr:
			target = x.X
		case *ast.IndexExpr:
			target = x.X
		case *ast.ParenExpr:
			target = x.X
		case *ast.StarExpr:
			target = x.X
		default:
			done = true
		}
	}
	id, ok := target.(*ast.Ident)
	if !ok {
		return true
	}
	obj := p.Info.Uses[id]
	if obj == nil {
		obj = p.Info.Defs[id]
	}
	if obj == nil {
		return true
	}
	return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
}

// orderedSink classifies a method call as order-sensitive, returning a short
// explanation, or "" if it is not a recognized sink.
func orderedSink(p *Package, sel *ast.SelectorExpr) string {
	selection := p.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return ""
	}
	recv := selection.Recv()
	name := sel.Sel.Name
	switch name {
	case "commit", "mutate":
		return "emits journal records in map iteration order (journal-under-lock contract)"
	case "Write", "Sum":
		// Duck-check for hash.Hash: iteration order would change the digest.
		if hasMethods(recv, "Write", "Sum", "Reset", "BlockSize") {
			return "feeds a hash in map iteration order (fingerprint contract)"
		}
	case "Append":
		// WAL/log appenders: records land on disk in iteration order.
		if named := namedType(recv); named != nil {
			tn := named.Obj().Name()
			if strings.Contains(tn, "Log") || strings.Contains(tn, "WAL") {
				return "appends log records in map iteration order"
			}
		}
	}
	return ""
}

// namedType unwraps pointers to the receiver's named type, if any.
func namedType(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// hasMethods reports whether t's (or *t's) method set contains every name.
// Interface types (hash.Hash) carry their methods directly; for concrete
// types the pointer method set is the superset worth checking.
func hasMethods(t types.Type, names ...string) bool {
	ms := types.NewMethodSet(t)
	_, isIface := t.Underlying().(*types.Interface)
	_, isPtr := t.(*types.Pointer)
	if !isIface && !isPtr {
		ms = types.NewMethodSet(types.NewPointer(t))
	}
	for _, name := range names {
		if ms.Lookup(nil, name) == nil {
			return false
		}
	}
	return true
}
