package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package under analysis.
type Package struct {
	// Path is the package import path ("fillvoid/internal/nn"), or a
	// synthetic path for fixture packages loaded with LoadDir.
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader discovers, parses and type-checks the module's packages using
// only the standard library: module-local imports are resolved against
// the loader's own package set, everything else (the standard library)
// falls back to go/importer's source importer, which type-checks
// dependencies from GOROOT source. No `go list` subprocess, no
// external packages.
type Loader struct {
	// ModuleRoot is the absolute directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod ("fillvoid").
	ModulePath string
	Fset       *token.FileSet

	pkgs     map[string]*Package
	loading  map[string]bool
	fallback types.ImporterFrom
}

// NewLoader returns a loader rooted at moduleRoot (the directory that
// holds go.mod).
func NewLoader(moduleRoot string) (*Loader, error) {
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	fb, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: source importer does not implement ImporterFrom")
	}
	return &Loader{
		ModuleRoot: abs,
		ModulePath: modPath,
		Fset:       fset,
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
		fallback:   fb,
	}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("analysis: reading %s: %w", path, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", path)
}

// FindModuleRoot walks upward from dir to the nearest directory
// containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		abs = parent
	}
}

// LoadAll discovers every package directory under the module root
// (skipping testdata, hidden and underscore directories) and loads each
// one, returning the packages sorted by import path.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		ok, err := hasGoSources(path)
		if err != nil {
			return err
		}
		if ok {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir parses and type-checks a single directory under the
// synthetic import path asPath. Module-local imports inside it resolve
// against the loader's module. Used by the golden fixture tests.
func (l *Loader) LoadDir(dir, asPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.load(asPath, abs)
}

// hasGoSources reports whether dir directly contains at least one
// non-test .go file.
func hasGoSources(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if isAnalyzableFile(e) {
			return true, nil
		}
	}
	return false, nil
}

// isAnalyzableFile reports whether a directory entry is a non-test Go
// source file. Test files are excluded from analysis by design: the
// checks guard production invariants, and tests legitimately spawn raw
// goroutines, compare floats bit-exactly and drop errors on fixtures.
func isAnalyzableFile(e os.DirEntry) bool {
	name := e.Name()
	return !e.IsDir() &&
		strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// load parses and type-checks the package in dir under import path
// path, memoized by path.
func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if !isAnalyzableFile(e) {
			continue
		}
		// Analyze the files the host build compiles: GOOS/GOARCH file
		// suffixes and //go:build lines (including `ignore` on helper
		// scripts) pick them, as they pick per-arch kernels.
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil {
			return nil, fmt.Errorf("analysis: reading build constraints of %s: %w", e.Name(), err)
		} else if !ok {
			continue
		}
		full := filepath.Join(dir, e.Name())
		f, err := parser.ParseFile(l.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", full, err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go sources in %s", dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: &loaderImporter{l: l}}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}

// loaderImporter resolves module-local import paths to the loader's
// own packages and delegates everything else to the source importer.
type loaderImporter struct {
	l *Loader
}

func (i *loaderImporter) Import(path string) (*types.Package, error) {
	return i.ImportFrom(path, i.l.ModuleRoot, 0)
}

func (i *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	mp := i.l.ModulePath
	if path == mp || strings.HasPrefix(path, mp+"/") {
		sub := filepath.Join(i.l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, mp), "/")))
		pkg, err := i.l.load(path, sub)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return i.l.fallback.ImportFrom(path, dir, mode)
}
