package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The determinism pass enforces the repo's foundational contract: for a fixed
// (Seed, Workers, …) the simulation's event stream, metrics, and fingerprints
// are bit-for-bit reproducible. Wall-clock reads and global math/rand draws
// are the two ways a run silently picks up entropy from the host, so both are
// findings in every internal package. Host-time measurement — lock holds,
// blob transfers, placement latency — goes through metrics.Stopwatch, whose
// two clock reads are annotated; the few other legitimate sites (real-transport
// timestamps) stay expressible behind `//u1:allow wallclock <reason>`, which
// makes every exemption self-documenting and auditable.

// simDeterministic is the set of packages under the bit-for-bit replay
// contract (golden event streams, shard fingerprints). Findings there get the
// sharper message; everywhere else under internal/ the wall-clock read is
// still a finding because observability code feeds the same metric snapshots
// the golden tests diff.
var simDeterministic = map[string]bool{
	"u1/internal/sim":      true,
	"u1/internal/workload": true,
	"u1/internal/metadata": true,
	"u1/internal/faults":   true,
	"u1/internal/scenario": true,
	"u1/internal/stats":    true,
	"u1/internal/auth":     true,
}

// wallclockFuncs are the package time functions that read or wait on the host
// clock. Pure conversions (time.Unix, time.Duration arithmetic) are fine.
var wallclockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

var determinismPass = &Pass{
	Name:  "determinism",
	Allow: "wallclock",
	Doc:   "no wall-clock reads (time.Now/Since/Sleep/…) or global math/rand draws in internal packages",
	Run:   runDeterminism,
}

func runDeterminism(p *Package, report reportFunc) {
	if !strings.HasPrefix(p.Path, "u1/internal/") {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
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
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch pn.Imported().Path() {
			case "time":
				if !wallclockFuncs[name] {
					break
				}
				if simDeterministic[p.Path] {
					report(call, "time.%s in a simulation-deterministic package: use the virtual clock, or annotate `//u1:allow wallclock <reason>` if this measures real elapsed time only", name)
				} else {
					report(call, "wall-clock time.%s: annotate `//u1:allow wallclock <reason>` if this is a legitimate measurement or real-transport site", name)
				}
			case "math/rand", "math/rand/v2":
				// Constructors (rand.New, rand.NewSource, rand.NewZipf) build
				// seedable instances and are exactly what the contract wants.
				if strings.HasPrefix(name, "New") {
					break
				}
				report(call, "global math/rand draw rand.%s breaks run-to-run determinism; draw from a seeded, worker-owned *rand.Rand instead", name)
			}
			return true
		})
	}
}
