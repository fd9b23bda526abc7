package lint

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

// Package is one type-checked package of the analyzed module.
type Package struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// Program is the unit checkers operate on: every package matched by the
// load patterns, fully type-checked against one shared FileSet.
type Program struct {
	Fset *token.FileSet
	Pkgs []*Package
}

// Loader loads and type-checks packages of the enclosing Go module using
// only the standard library. Module-internal imports are resolved by
// mapping import paths onto directories under the module root and
// type-checking them recursively; standard-library imports are delegated
// to the stdlib source importer (go/importer "source"), which type-checks
// GOROOT packages from source. The module has no third-party
// dependencies, so those two cases are exhaustive.
type Loader struct {
	Fset    *token.FileSet
	ModRoot string // directory containing go.mod
	ModPath string // module path declared in go.mod

	std     types.ImporterFrom
	cache   map[string]*Package
	loading map[string]bool
}

// NewLoader locates the module enclosing startDir and prepares a loader.
func NewLoader(startDir string) (*Loader, error) {
	root, modPath, err := findModule(startDir)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:    token.NewFileSet(),
		ModRoot: root,
		ModPath: modPath,
		cache:   map[string]*Package{},
		loading: map[string]bool{},
	}
	// The stdlib importer shares the loader's FileSet so positions in
	// stdlib sources (should they ever surface in errors) stay coherent.
	std, ok := importer.ForCompiler(l.Fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer does not implement ImporterFrom")
	}
	l.std = std
	return l, nil
}

// findModule walks up from dir looking for go.mod and returns the module
// root directory and declared module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		gomod := filepath.Join(d, "go.mod")
		if data, err := os.ReadFile(gomod); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					mp := strings.TrimSpace(rest)
					mp = strings.Trim(mp, `"`)
					if mp == "" {
						break
					}
					return d, mp, nil
				}
			}
			return "", "", fmt.Errorf("lint: %s has no module directive", gomod)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths load
// from the module tree, everything else falls through to the stdlib
// source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// load returns the cached package for a module-internal import path,
// loading and type-checking it on first use.
func (l *Loader) load(path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	dir := filepath.Join(l.ModRoot, filepath.FromSlash(rel))
	p, err := l.loadDir(dir, path)
	if err != nil {
		return nil, err
	}
	l.cache[path] = p
	return p, nil
}

func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", importPath, err)
	}
	// ImportDir does not error on a directory holding only _test.go
	// files; without this guard such a directory would type-check as an
	// empty pseudo-package.
	if len(bp.GoFiles) == 0 {
		return nil, fmt.Errorf("lint: %s: no non-test Go files in %s", importPath, dir)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	names := append([]string{}, bp.GoFiles...)
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []string
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			typeErrs = append(typeErrs, err.Error())
		},
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("lint: type errors in %s:\n  %s", importPath, strings.Join(typeErrs, "\n  "))
	}
	if err != nil {
		return nil, fmt.Errorf("lint: %s: %w", importPath, err)
	}
	return &Package{ImportPath: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}

// Load expands the patterns (import paths, ./relative paths, or the
// ./... wildcard rooted at fromDir) and returns the type-checked program.
func (l *Loader) Load(fromDir string, patterns ...string) (*Program, error) {
	paths, err := l.expand(fromDir, patterns)
	if err != nil {
		return nil, err
	}
	prog := &Program{Fset: l.Fset}
	for _, path := range paths {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	return prog, nil
}

// expand resolves load patterns to module import paths, sorted.
func (l *Loader) expand(fromDir string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(path string) {
		if !seen[path] {
			seen[path] = true
			out = append(out, path)
		}
	}
	for _, pat := range patterns {
		switch {
		case strings.HasSuffix(pat, "..."):
			base := strings.TrimSuffix(pat, "...")
			base = strings.TrimSuffix(base, "/")
			var rootDir string
			if base == "." || base == "" {
				rootDir = fromDir
			} else if strings.HasPrefix(base, "./") {
				rootDir = filepath.Join(fromDir, filepath.FromSlash(strings.TrimPrefix(base, "./")))
			} else if base == l.ModPath || strings.HasPrefix(base, l.ModPath+"/") {
				rel := strings.TrimPrefix(strings.TrimPrefix(base, l.ModPath), "/")
				rootDir = filepath.Join(l.ModRoot, filepath.FromSlash(rel))
			} else {
				return nil, fmt.Errorf("lint: pattern %q is outside module %s", pat, l.ModPath)
			}
			dirs, err := packageDirs(rootDir)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				ip, err := l.dirImportPath(d)
				if err != nil {
					return nil, err
				}
				add(ip)
			}
		case pat == "." || strings.HasPrefix(pat, "./"):
			dir := filepath.Join(fromDir, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
			ip, err := l.dirImportPath(dir)
			if err != nil {
				return nil, err
			}
			add(ip)
		case pat == l.ModPath || strings.HasPrefix(pat, l.ModPath+"/"):
			add(pat)
		default:
			return nil, fmt.Errorf("lint: pattern %q is outside module %s (stdlib-only loader)", pat, l.ModPath)
		}
	}
	sort.Strings(out)
	return out, nil
}

// dirImportPath maps a directory under the module root to its import path.
func (l *Loader) dirImportPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module root %s", dir, l.ModRoot)
	}
	if rel == "." {
		return l.ModPath, nil
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// packageDirs walks root and returns every directory containing buildable
// non-test Go files, skipping testdata, vendor, hidden, and underscore
// directories — the same exclusions the go tool applies to ./... .
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		// Require at least one non-test Go file: ImportDir succeeds on a
		// _test.go-only directory, but there is no package to check there.
		if bp, err := build.Default.ImportDir(path, 0); err == nil && len(bp.GoFiles) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}
