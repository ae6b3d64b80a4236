// Package lint is the repo's contract-enforcing static analysis framework.
// The properties the simulation is built on — bit-for-bit determinism for a
// fixed (Seed, Workers, …), journal-under-lock durability, and an internal
// API no larger than the program that calls it — are invariants of the
// *source*, not of any one test run. This
// package loads and type-checks every package in the module with nothing but
// the standard library (go/parser, go/types, go/importer) and runs a registry
// of named passes over the typed syntax trees; cmd/u1lint is the CLI that
// prints `file:line: [pass] message` diagnostics and exits non-zero on any
// finding, and the CI lint job runs it over the whole tree.
//
// Exemptions are explicit and self-documenting: a site that legitimately
// breaks a rule carries a `//u1:allow <rule> <reason>` annotation on the same
// line or the line directly above (see allow.go). An annotation that is
// malformed, names an unknown rule, or no longer suppresses anything is itself
// a diagnostic, so stale exemptions cannot accumulate.
//
// The pass catalog is returned by Passes (determinism, maporder, unused,
// each in its own file); docs/REFERENCE.md documents each pass's contract.
// Two passes look at one package at a time. The third, unused, resolves
// references across the whole module — LoadPatterns always loads every
// package, so linting a subset reports exactly what linting the module
// reports there. Three contracts need no pass: journal-under-lock holds
// because the metadata store journals only from commit, which runs under the
// shard write lock; the metric namespace holds because a metrics.Name can
// only be built from its declaration in metrics/names.go; and shard lock
// accounting holds because a metadata shard's mutex lives unexported in
// metrics.ShardLock, whose every acquisition is counted and timed or named
// Uncounted.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one finding: a position, the pass that produced it, and the
// message. String renders the canonical `file:line: [pass] message` form.
type Diagnostic struct {
	Pos     token.Position
	Pass    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pass, d.Message)
}

// reportFunc is how a pass emits findings: the framework attaches the message
// to n's position and resolves annotations before anything is surfaced.
type reportFunc = func(n ast.Node, format string, args ...any)

// Pass is one named analysis. Run inspects a type-checked package and reports
// findings through report; the framework resolves annotations, so Run never
// needs to think about exemptions.
type Pass struct {
	// Name is the pass name printed in diagnostics.
	Name string
	// Allow is the annotation rule token that exempts this pass's findings
	// (`//u1:allow <Allow> <reason>`). Usually the pass name; the determinism
	// pass uses "wallclock" so the annotation names the thing being permitted
	// rather than the pass that polices it.
	Allow string
	// Doc is the one-line description shown by `u1lint -list`.
	Doc string
	// Run executes the pass. report attaches the finding to n's position.
	Run func(p *Package, report func(n ast.Node, format string, args ...any))
}

// Passes returns the registered pass catalog in registration order.
func Passes() []*Pass {
	return []*Pass{determinismPass, maporderPass, unusedPass}
}

// passByAllow maps an annotation rule token to its pass, for validating
// annotations against the catalog.
func passByAllow(rule string) *Pass {
	for _, p := range Passes() {
		if p.Allow == rule {
			return p
		}
	}
	return nil
}

// Run executes every registered pass over pkgs and returns the surviving
// diagnostics — findings not covered by a matching annotation, plus one
// diagnostic per malformed, unknown, or stale annotation — sorted by
// position. It is the single entry point the CLI and the tests share.
func Run(pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allows := collectAllows(pkg)
		for _, pass := range Passes() {
			pass := pass
			report := func(n ast.Node, format string, args ...any) {
				pos := pkg.Fset.Position(n.Pos())
				if a := allows.lookup(pass.Allow, pos); a != nil {
					a.used = true
					return
				}
				diags = append(diags, Diagnostic{
					Pos:     pos,
					Pass:    pass.Name,
					Message: fmt.Sprintf(format, args...),
				})
			}
			pass.Run(pkg, report)
		}
		diags = append(diags, allows.problems()...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pass < b.Pass
	})
	return diags
}
