package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The loader: a stdlib-only module loader. It discovers the module root by
// walking up to go.mod, enumerates package directories, parses every non-test
// file and type-checks each package with go/types. Imports inside the module
// resolve recursively through the loader itself; standard-library imports
// resolve through go/importer's source importer (which reads GOROOT/src, so
// nothing outside the toolchain is needed). Test files are deliberately out
// of scope: the contracts the passes enforce bind the simulation's library
// code, while tests are drivers that legitimately use wall-clock deadlines
// and ad-hoc names.

// Package is one loaded, type-checked package: the unit every pass runs over.
type Package struct {
	// Path is the import path ("u1/internal/sim"). Fixture packages loaded
	// with LoadDirAs carry whatever path the test assigned.
	Path string
	// Dir is the directory the files were read from, as given to the loader.
	Dir string
	// Fset is the loader-wide file set (shared across packages).
	Fset *token.FileSet
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Pkg and Info are the go/types results.
	Pkg  *types.Package
	Info *types.Info

	src    map[string][]byte // file name -> raw source, for annotation layout
	loader *Loader           // the loader whose package set module-wide passes see
}

// commentStandsAlone reports whether c is the first token on its source line
// (a standalone comment exempts the line below; a trailing comment exempts
// its own line).
func (p *Package) commentStandsAlone(c *ast.Comment) bool {
	pos := p.Fset.Position(c.Pos())
	src, ok := p.src[pos.Filename]
	if !ok || pos.Column <= 1 {
		return true
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return true
	}
	return strings.TrimSpace(string(src[start:pos.Offset])) == ""
}

// Loader loads and type-checks module packages. One Loader amortizes the
// standard-library type-checking across every package it loads, so callers
// should reuse a single instance.
type Loader struct {
	// ModuleRoot is the directory containing go.mod, as discovered (possibly
	// relative to the working directory it was created in).
	ModuleRoot string
	// ModulePath is the module's declared path ("u1").
	ModulePath string

	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*Package // by import path

	// used memoizes usedObjects over the package set it was computed from;
	// usedOver is that set's size (loading only ever adds packages).
	used     map[types.Object]bool
	usedOver int
}

// NewLoader discovers the module root upward from dir ("." for the working
// directory) and returns a loader for it.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
	}, nil
}

// findModule walks up from dir to the first go.mod and parses its module path.
func findModule(dir string) (root, modPath string, err error) {
	d := dir
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
		}
		parent := filepath.Join(d, "..")
		abs, _ := filepath.Abs(d)
		absParent, _ := filepath.Abs(parent)
		if abs == absParent {
			return "", "", fmt.Errorf("lint: no go.mod found from %s upward", dir)
		}
		d = parent
	}
}

// Import implements types.Importer: module-internal paths load through the
// loader, everything else through the standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.LoadDir(l.dirFor(path))
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module import path to its directory.
func (l *Loader) dirFor(importPath string) string {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModulePath), "/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// pathFor maps a directory to its module import path.
func (l *Loader) pathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if rel == "." {
		return l.ModulePath, nil
	}
	if strings.HasPrefix(rel, "../") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModulePath)
	}
	return l.ModulePath + "/" + rel, nil
}

// LoadDir loads the package in dir under its natural module import path.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	path, err := l.pathFor(dir)
	if err != nil {
		return nil, err
	}
	return l.LoadDirAs(dir, path)
}

// LoadDirAs loads the package in dir under an explicit import path — how the
// golden tests give testdata fixtures the package identity their scenario
// needs. Results are memoized by import path.
func (l *Loader) LoadDirAs(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test Go files in %s", dir)
	}
	sort.Strings(names)

	pkg := &Package{
		Path:   importPath,
		Dir:    dir,
		Fset:   l.fset,
		src:    make(map[string][]byte, len(names)),
		loader: l,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
	for _, name := range names {
		fname := filepath.Join(dir, name)
		src, err := os.ReadFile(fname)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(l.fset, fname, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", fname, err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.src[fname] = src
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	pkg.Pkg = tpkg
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// Expand resolves a package pattern to package directories: `dir/...` walks
// dir recursively (skipping testdata, hidden and underscore directories, the
// go tool's convention), anything else names a single directory — including
// testdata fixture directories when named explicitly.
func (l *Loader) Expand(pattern string) ([]string, error) {
	dir, recursive := strings.CutSuffix(pattern, "/...")
	if dir == "" || pattern == "..." {
		dir = "."
	}
	if !recursive {
		return []string{filepath.Clean(pattern)}, nil
	}
	var dirs []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			pd := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != pd {
				dirs = append(dirs, pd)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// LoadPatterns expands and loads every pattern, returning packages sorted by
// import path. It also loads the rest of the module without returning it:
// module-wide passes (unused) resolve references against every package, so
// linting a subset reports exactly what linting the module reports there.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	if _, err := l.loadAll(l.ModuleRoot + "/..."); err != nil {
		return nil, err
	}
	pkgs, err := l.loadAll(patterns...)
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// loadAll expands and loads every pattern, each package once.
func (l *Loader) loadAll(patterns ...string) ([]*Package, error) {
	seen := make(map[string]bool)
	var pkgs []*Package
	for _, pat := range patterns {
		dirs, err := l.Expand(pat)
		if err != nil {
			return nil, err
		}
		for _, dir := range dirs {
			pkg, err := l.LoadDir(dir)
			if err != nil {
				return nil, err
			}
			if !seen[pkg.Path] {
				seen[pkg.Path] = true
				pkgs = append(pkgs, pkg)
			}
		}
	}
	return pkgs, nil
}
