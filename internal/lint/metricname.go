package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// The metricname pass guards the metric namespace its readers key on:
// benchmark/, the scenario reports and the cmds look series up by name, so a
// typo'd name does not fail anything — it silently mints a new series that
// no reader ever looks at. Every name passed to a *metrics.Registry
// Counter/Gauge/Histogram constructor must therefore parse against the
// documented grammar below (docs/REFERENCE.md "Metric naming scheme").
//
// Names are resolved statically: string constants (including the exported
// metrics.*Prefix constants), `+` concatenation, and single-assignment local
// variables all fold; genuinely dynamic parts (op.String(), strconv.Itoa,
// config fields) become a placeholder segment that matches the grammar's
// `*` positions. A name that is dynamic from its first segment cannot be
// validated and is skipped.

var metricnamePass = &Pass{
	Name:  "metricname",
	Allow: "metricname",
	Doc:   "metric names passed to metrics.Registry constructors must match the documented grammar",
	Run:   runMetricname,
}

// metricProductions is the grammar: one production per documented series
// shape, `*` matching exactly one dynamic segment (an Op name, a shard index,
// a backend name). Extending the metric namespace means extending this table
// and the docs/REFERENCE.md section in the same change — that is the point.
var metricProductions = []string{
	"api.op.*.seconds", "api.op.*.count", "api.op.*.errors",
	"api.sessions.active", "api.server.*.ops", "api.region.refused",
	"rpc.errors", "rpc.class.*.seconds", "rpc.*.seconds",
	"meta.shard.*.reads", "meta.shard.*.writes",
	"meta.shard.*.read_hold.seconds", "meta.shard.*.write_hold.seconds",
	"meta.delta.served", "meta.delta.truncated",
	"meta.get_from_scratch", "meta.deltalog.trimmed",
	"blob.put.bytes", "blob.put.seconds", "blob.get.bytes", "blob.get.seconds",
	"blob.deletes", "blob.object.bytes", "blob.objects.held",
	"notify.published", "notify.delivered", "notify.dropped", "notify.fanout",
	"gateway.sessions.placed", "gateway.sessions.active",
	"gateway.place.seconds", "gateway.backend.*.placed",
	"wal.appends", "wal.snapshots", "wal.replayed",
	"wal.torn_bytes_dropped", "wal.errors", "wal.journaled",
	"faults.injected", "faults.shed", "faults.sso_shed",
	"faults.retried", "faults.retry_succeeded",
	"repl.published", "repl.applied", "repl.lww_skipped", "repl.revoked_blocked",
	"repl.reads.local", "repl.reads.remote", "repl.reads.stale",
	"repl.backlog.depth", "repl.lag.epochs",
}

// dynSegment marks a statically-unresolvable span inside a folded name.
const dynSegment = "\x00"

func runMetricname(p *Package, report reportFunc) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			env := buildNameEnv(p, fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) < 1 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch sel.Sel.Name {
				case "Counter", "Gauge", "Histogram":
				default:
					return true
				}
				if !isRegistryMethod(p, sel) {
					return true
				}
				name := foldName(p, call.Args[0], env, 0)
				if name == "" {
					report(call.Args[0], "empty metric name passed to Registry.%s", sel.Sel.Name)
					return true
				}
				// Dynamic from the first segment: nothing to validate.
				if strings.HasPrefix(name, dynSegment) {
					return true
				}
				if !matchesGrammar(name) {
					report(call.Args[0], "metric name %q does not match the documented naming grammar (docs/REFERENCE.md); a mistyped name mints a silent new series no reader ever looks up", strings.ReplaceAll(name, dynSegment, "<dyn>"))
				}
				return true
			})
		}
	}
}

// isRegistryMethod reports whether sel is a method call on
// u1/internal/metrics.Registry (other types also expose Counter-shaped
// helpers, e.g. scenario results; those are out of scope).
func isRegistryMethod(p *Package, sel *ast.SelectorExpr) bool {
	selection := p.Info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return false
	}
	named := namedType(selection.Recv())
	if named == nil {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil && obj.Pkg().Path() == "u1/internal/metrics"
}

// buildNameEnv maps each local variable assigned exactly once in body to its
// initializer, so `name := metrics.APIOpPrefix + op.String()` folds at the
// use sites below it.
func buildNameEnv(p *Package, body *ast.BlockStmt) map[*types.Var]ast.Expr {
	counts := make(map[*types.Var]int)
	inits := make(map[*types.Var]ast.Expr)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.Info.Defs[id]
			if obj == nil {
				obj = p.Info.Uses[id]
			}
			v, ok := obj.(*types.Var)
			if !ok {
				continue
			}
			counts[v]++
			if len(as.Lhs) == len(as.Rhs) {
				inits[v] = as.Rhs[i]
			}
		}
		return true
	})
	env := make(map[*types.Var]ast.Expr)
	for v, e := range inits {
		if counts[v] == 1 {
			env[v] = e
		}
	}
	return env
}

// foldName statically folds a string expression: constants fold to their
// value, `+` concatenates, single-assignment locals inline, everything else
// becomes a dynamic-segment marker.
func foldName(p *Package, e ast.Expr, env map[*types.Var]ast.Expr, depth int) string {
	if depth > 16 {
		return dynSegment
	}
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value)
	}
	switch x := e.(type) {
	case *ast.ParenExpr:
		return foldName(p, x.X, env, depth+1)
	case *ast.BinaryExpr:
		if x.Op == token.ADD {
			return foldName(p, x.X, env, depth+1) + foldName(p, x.Y, env, depth+1)
		}
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if v, ok := obj.(*types.Var); ok {
			if init, ok := env[v]; ok {
				return foldName(p, init, env, depth+1)
			}
		}
	}
	return dynSegment
}

// matchesGrammar checks the folded name against the production table,
// segment by segment; a `*` production segment accepts any non-empty
// segment, including a dynamic one.
func matchesGrammar(name string) bool {
	segs := strings.Split(name, ".")
	for _, prod := range metricProductions {
		if matchProduction(strings.Split(prod, "."), segs) {
			return true
		}
	}
	return false
}

func matchProduction(prod, segs []string) bool {
	if len(prod) != len(segs) {
		return false
	}
	for i := range prod {
		if prod[i] == "*" {
			if segs[i] == "" {
				return false
			}
			continue
		}
		if segs[i] != prod[i] {
			return false
		}
	}
	return true
}
