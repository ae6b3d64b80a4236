package lint

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// One loader serves every test in the package: the standard-library
// type-checking it does through the source importer is the expensive part,
// and it amortizes across fixtures and the real-tree run.
var (
	loaderOnce sync.Once
	loaderErr  error
	loader     *Loader
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() { loader, loaderErr = NewLoader(".") })
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

// want is one expected diagnostic, parsed from a fixture comment of the form
// `// want: <pass>: <message substring>` (expected on that line) or
// `// want-above: <pass>: <substring>` (expected on the line above, for
// diagnostics that anchor to a standalone annotation).
type want struct {
	pass string
	sub  string
}

type wantKey struct {
	file string
	line int
}

func parseWants(t *testing.T, pkg *Package) map[wantKey][]want {
	t.Helper()
	wants := make(map[wantKey][]want)
	add := func(file string, line int, spec string) {
		pass, sub, ok := strings.Cut(strings.TrimSpace(spec), ": ")
		if !ok || pass == "" || sub == "" {
			t.Fatalf("%s:%d: malformed want comment %q", file, line, spec)
		}
		wants[wantKey{file, line}] = append(wants[wantKey{file, line}], want{pass, sub})
	}
	for fname, src := range pkg.src {
		for i, line := range strings.Split(string(src), "\n") {
			if _, spec, ok := strings.Cut(line, "// want: "); ok {
				add(fname, i+1, spec)
			}
			if _, spec, ok := strings.Cut(line, "// want-above: "); ok {
				add(fname, i, spec)
			}
		}
	}
	return wants
}

// checkFixture loads dir under importPath and requires Run's diagnostics to
// match the fixture's want comments exactly — every diagnostic expected,
// every expectation produced. Fixtures of the other passes declare functions
// nothing calls, so only the unused_* fixtures are held to the unused pass.
func checkFixture(t *testing.T, dir, importPath string) {
	t.Helper()
	l := sharedLoader(t)
	pkg, err := l.LoadDirAs(dir, importPath)
	if err != nil {
		t.Fatalf("loading %s as %s: %v", dir, importPath, err)
	}
	unusedFixture := strings.HasPrefix(filepath.Base(dir), "unused_")
	wants := parseWants(t, pkg)
	for _, d := range Run([]*Package{pkg}) {
		if d.Pass == "unused" && !unusedFixture {
			continue
		}
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		ws := wants[k]
		found := -1
		for i, w := range ws {
			if w.pass == d.Pass && strings.Contains(d.Message, w.sub) {
				found = i
				break
			}
		}
		if found < 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[k] = append(ws[:found], ws[found+1:]...)
	}
	for k, ws := range wants {
		for _, w := range ws {
			t.Errorf("missing diagnostic at %s:%d: [%s] containing %q", k.file, k.line, w.pass, w.sub)
		}
	}
}

func TestGoldenFixtures(t *testing.T) {
	cases := []struct {
		name string
		dir  string
		path string
	}{
		{"determinism_bad", "testdata/determinism_bad", "u1/internal/detbad"},
		{"determinism_clean", "testdata/determinism_clean", "u1/internal/detclean"},
		{"maporder_bad", "testdata/maporder_bad", "u1/internal/mapbad"},
		{"maporder_clean", "testdata/maporder_clean", "u1/internal/mapclean"},
		{"allow_bad", "testdata/allow_bad", "u1/internal/allowbad"},
		{"unused_bad", "testdata/unused_bad", "u1/internal/unusedbad"},
		{"unused_clean", "testdata/unused_clean", "u1/internal/unusedclean"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkFixture(t, tc.dir, tc.path) })
	}
}

// TestViolationFixturesFindSomething is the exit-code contract behind
// cmd/u1lint: a violating fixture must yield at least one diagnostic, so the
// CLI exits non-zero on it.
func TestViolationFixturesFindSomething(t *testing.T) {
	l := sharedLoader(t)
	for _, dir := range []string{
		"testdata/determinism_bad", "testdata/maporder_bad",
		"testdata/allow_bad", "testdata/unused_bad",
	} {
		pkg, err := l.LoadDirAs(dir, "u1/internal/"+filepath.Base(dir))
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		if diags := Run([]*Package{pkg}); len(diags) == 0 {
			t.Errorf("%s: expected findings, got none", dir)
		}
	}
}

// TestDeterminismPathGates checks both sides of the pass's path gating: the
// sharper message inside a simulation-deterministic package, and silence
// outside u1/internal entirely.
func TestDeterminismPathGates(t *testing.T) {
	// A fresh loader: the shared one must never learn fixture code under a
	// real package path like u1/internal/sim.
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}

	simPkg, err := l.LoadDirAs("testdata/determinism_bad", "u1/internal/sim")
	if err != nil {
		t.Fatalf("loading fixture as u1/internal/sim: %v", err)
	}
	sharper := 0
	for _, d := range Run([]*Package{simPkg}) {
		if d.Pass == "determinism" && strings.Contains(d.Message, "simulation-deterministic package") {
			sharper++
		}
	}
	if sharper == 0 {
		t.Errorf("expected sharper sim-deterministic messages under u1/internal/sim, got none")
	}

	extPkg, err := l.LoadDirAs("testdata/determinism_bad", "u1/external/detbad")
	if err != nil {
		t.Fatalf("loading fixture as u1/external/detbad: %v", err)
	}
	if diags := Run([]*Package{extPkg}); len(diags) != 0 {
		t.Errorf("expected no findings outside u1/internal/, got %d (first: %s)", len(diags), diags[0])
	}
}

// TestPassCatalog pins the registry shape the annotation grammar and
// `u1lint -list` depend on.
func TestPassCatalog(t *testing.T) {
	names := make(map[string]bool)
	allows := make(map[string]bool)
	for _, p := range Passes() {
		if p.Name == "" || p.Allow == "" || p.Doc == "" || p.Run == nil {
			t.Errorf("pass %+v: incomplete registration", p)
		}
		if names[p.Name] {
			t.Errorf("duplicate pass name %q", p.Name)
		}
		if allows[p.Allow] {
			t.Errorf("duplicate allow token %q", p.Allow)
		}
		names[p.Name], allows[p.Allow] = true, true
		if passByAllow(p.Allow) != p {
			t.Errorf("passByAllow(%q) does not round-trip", p.Allow)
		}
	}
	if n := len(Passes()); n != 3 {
		t.Errorf("catalog has %d passes, want 3", n)
	}
	for _, want := range []string{"determinism", "maporder", "unused"} {
		if !names[want] {
			t.Errorf("pass %q missing from catalog", want)
		}
	}
	if passByAllow("nosuchrule") != nil {
		t.Errorf("passByAllow accepted an unknown rule")
	}
}

// TestRealTreeClean is the contract the CI lint job enforces, as a test: the
// whole module lints clean. Any regression — a new wall-clock read, a map
// iteration leaking into a journal, a stale annotation — fails here before it
// reaches CI.
func TestRealTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module")
	}
	l := sharedLoader(t)
	pkgs, err := l.LoadPatterns(l.ModuleRoot + "/...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("expected to load the whole module, got %d packages", len(pkgs))
	}
	diags := Run(pkgs)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("real tree has %d lint findings; fix them or annotate with //u1:allow", len(diags))
	}
}

// rawUnused runs the unused pass over pkg with no annotation applied.
func rawUnused(pkg *Package) []string {
	var out []string
	unusedPass.Run(pkg, func(n ast.Node, format string, args ...any) {
		pos := pkg.Fset.Position(n.Pos())
		out = append(out, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, fmt.Sprintf(format, args...)))
	})
	return out
}

// TestUnusedSubsetMatchesModule pins the pass's reference rule: linting one
// package reports exactly what linting the whole module reports there,
// because LoadPatterns loads every caller, cmd/ and benchmark/ included. The
// pass runs without annotations, so the declarations the tree keeps on
// purpose give both sides something to agree on; a package loaded alone,
// with only its own imports as callers, must report more.
func TestUnusedSubsetMatchesModule(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module twice")
	}
	whole := sharedLoader(t)
	if _, err := whole.LoadPatterns(whole.ModuleRoot + "/..."); err != nil {
		t.Fatalf("loading module: %v", err)
	}
	subset, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	alone, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"internal/trace", "internal/protocol"} {
		dir := filepath.Join(subset.ModuleRoot, rel)
		pkgs, err := subset.LoadPatterns(dir)
		if err != nil || len(pkgs) != 1 {
			t.Fatalf("loading %s: %d packages, %v", rel, len(pkgs), err)
		}
		want := rawUnused(whole.pkgs["u1/"+rel])
		if len(want) == 0 {
			t.Errorf("%s: no unannotated finding to compare; pick a package that keeps one", rel)
		}
		if got := rawUnused(pkgs[0]); !reflect.DeepEqual(got, want) {
			t.Errorf("%s linted as a subset:\n  %s\nwhole module:\n  %s", rel, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
		}
		pkg, err := alone.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := rawUnused(pkg); len(got) <= len(want) {
			t.Errorf("%s loaded alone reports %d findings, want more than the module's %d", rel, len(got), len(want))
		}
	}
}
