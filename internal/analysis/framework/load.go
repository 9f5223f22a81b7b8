package framework

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader loads and type-checks packages of the enclosing module without
// invoking the go command: module-local import paths resolve to directories
// under the module root, fixture paths resolve under the configured
// GOPATH-style source roots, and everything else (the standard library)
// is type-checked from GOROOT sources via go/importer's source importer.
// The loader therefore works with no module cache and no network, which is
// what lets nicwarp-vet run in hermetic CI containers.
type Loader struct {
	Fset *token.FileSet
	// ModPath and ModRoot identify the enclosing module ("nicwarp").
	ModPath string
	ModRoot string
	// SrcDirs are extra GOPATH-style roots searched for import paths that
	// are not module-local; analysistest points this at testdata/src.
	SrcDirs []string

	std        types.Importer
	pkgs       map[string]*Package
	inProgress map[string]bool
}

// NewLoader creates a loader for the module enclosing dir: the nearest
// directory at or above dir that holds a go.mod.
func NewLoader(dir string, srcDirs ...string) (*Loader, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	for err != nil {
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
		data, err = os.ReadFile(filepath.Join(dir, "go.mod"))
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			fset := token.NewFileSet()
			return &Loader{
				Fset:       fset,
				ModPath:    strings.Trim(strings.TrimSpace(rest), `"`),
				ModRoot:    dir,
				SrcDirs:    srcDirs,
				std:        importer.ForCompiler(fset, "source", nil),
				pkgs:       make(map[string]*Package),
				inProgress: make(map[string]bool),
			}, nil
		}
	}
	return nil, fmt.Errorf("%s: no module directive", filepath.Join(dir, "go.mod"))
}

// LoadPatterns loads, in import-path order, the packages that patterns
// name: each is a directory relative to the module root ("./internal/vtime",
// "."), or one followed by "..." for every package at or below it
// ("./...", "./internal/...").
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	var paths []string
	for _, pat := range patterns {
		if dir, tree := strings.CutSuffix(pat, "..."); tree {
			expanded, err := l.expandUnder(filepath.Join(l.ModRoot, filepath.FromSlash(dir)))
			if err != nil {
				return nil, err
			}
			paths = append(paths, expanded...)
		} else {
			paths = append(paths, path.Join(l.ModPath, pat))
		}
	}
	sort.Strings(paths)
	paths = slices.Compact(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Loaded returns every package loaded so far (requested or pulled in as a
// dependency), in import-path order.
func (l *Loader) Loaded() []*Package {
	paths := make([]string, 0, len(l.pkgs))
	for p := range l.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	out := make([]*Package, len(paths))
	for i, p := range paths {
		out[i] = l.pkgs[p]
	}
	return out
}

// expandUnder walks root and returns the import paths of every directory
// containing non-test Go files, applying the go command's conventions:
// testdata, vendor and dot/underscore directories are skipped.
func (l *Loader) expandUnder(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if len(goFilesIn(dir)) > 0 {
			out = append(out, path.Join(l.ModPath, filepath.ToSlash(strings.TrimPrefix(dir, l.ModRoot))))
		}
		return nil
	})
	return out, err
}

// dirFor resolves an import path to its source directory and non-test Go
// files: the module tree first, then the GOPATH-style SrcDirs. A path it
// cannot resolve has no files.
func (l *Loader) dirFor(importPath string) (string, []string) {
	dirs := make([]string, 0, 1+len(l.SrcDirs))
	if rest, ok := strings.CutPrefix(importPath+"/", l.ModPath+"/"); ok {
		dirs = append(dirs, filepath.Join(l.ModRoot, filepath.FromSlash(rest)))
	}
	for _, sd := range l.SrcDirs {
		dirs = append(dirs, filepath.Join(sd, filepath.FromSlash(importPath)))
	}
	for _, dir := range dirs {
		if names := goFilesIn(dir); len(names) > 0 {
			return dir, names
		}
	}
	return "", nil
}

// goFilesIn lists the buildable non-test Go files in dir, sorted; an
// unreadable dir has none.
func goFilesIn(dir string) []string {
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	return names
}

// Import implements types.Importer: module-local and fixture paths load
// through this Loader; everything else falls back to the GOROOT source
// importer.
func (l *Loader) Import(importPath string) (*types.Package, error) {
	if _, names := l.dirFor(importPath); names == nil {
		return l.std.Import(importPath)
	}
	pkg, err := l.Load(importPath)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// Load parses and type-checks the package with the given import path. A
// package that does not type-check is an error, so every expression an
// analyzer visits has a type and every defining identifier an object.
func (l *Loader) Load(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		return pkg, nil
	}
	dir, names := l.dirFor(importPath)
	if names == nil {
		return nil, fmt.Errorf("cannot resolve package %q", importPath)
	}
	if l.inProgress[importPath] {
		return nil, fmt.Errorf("import cycle through %q", importPath)
	}
	l.inProgress[importPath] = true
	defer delete(l.inProgress, importPath)

	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: importPath, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = pkg
	return pkg, nil
}
