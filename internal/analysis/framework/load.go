package framework

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

// NewLoader creates a loader for the module rooted at modRoot (which must
// contain go.mod).
func NewLoader(modRoot string, srcDirs ...string) (*Loader, error) {
	modRoot, err := filepath.Abs(modRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModPath:    modPath,
		ModRoot:    modRoot,
		SrcDirs:    srcDirs,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		inProgress: make(map[string]bool),
	}, nil
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}

// Load loads and type-checks the package with the given import path.
func (l *Loader) Load(path string) (*Package, error) {
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("cannot resolve package %q", path)
	}
	return l.loadDir(path, dir)
}

// LoadPatterns expands the given patterns ("./...", "./dir/...", "./dir",
// or plain import paths) and loads every matched package, in deterministic
// import-path order.
func (l *Loader) LoadPatterns(patterns ...string) ([]*Package, error) {
	var paths []string
	seen := make(map[string]bool)
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "all" || pat == "./...":
			expanded, err := l.expandUnder(l.ModRoot, l.ModPath)
			if err != nil {
				return nil, err
			}
			for _, p := range expanded {
				add(p)
			}
		case strings.HasPrefix(pat, "./") && strings.HasSuffix(pat, "/..."):
			rel := strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/...")
			expanded, err := l.expandUnder(
				filepath.Join(l.ModRoot, filepath.FromSlash(rel)),
				joinImport(l.ModPath, rel))
			if err != nil {
				return nil, err
			}
			for _, p := range expanded {
				add(p)
			}
		case pat == ".":
			add(l.ModPath)
		case strings.HasPrefix(pat, "./"):
			add(joinImport(l.ModPath, strings.TrimPrefix(pat, "./")))
		default:
			add(pat)
		}
	}
	sort.Strings(paths)
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
func (l *Loader) expandUnder(root, rootImport string) ([]string, error) {
	var out []string
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
		if names, _ := goFilesIn(path); len(names) > 0 {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			out = append(out, joinImport(rootImport, filepath.ToSlash(rel)))
		}
		return nil
	})
	return out, err
}

func joinImport(base, rel string) string {
	rel = strings.Trim(rel, "/")
	if rel == "" || rel == "." {
		return base
	}
	return base + "/" + rel
}

// dirFor resolves an import path to a source directory: the module tree
// first, then the GOPATH-style SrcDirs.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.ModPath {
		return l.ModRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModPath+"/"); ok {
		dir := filepath.Join(l.ModRoot, filepath.FromSlash(rest))
		if names, _ := goFilesIn(dir); len(names) > 0 {
			return dir, true
		}
	}
	for _, sd := range l.SrcDirs {
		dir := filepath.Join(sd, filepath.FromSlash(path))
		if names, _ := goFilesIn(dir); len(names) > 0 {
			return dir, true
		}
	}
	return "", false
}

// goFilesIn lists the buildable non-test Go files in dir, sorted.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
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
	sort.Strings(names)
	return names, nil
}

// Import implements types.Importer: module-local and fixture paths load
// through this Loader; everything else falls back to the GOROOT source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg.Types, nil
	}
	if dir, ok := l.dirFor(path); ok {
		pkg, err := l.loadDir(path, dir)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// loadDir parses and type-checks the package in dir under import path path.
func (l *Loader) loadDir(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.inProgress[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	l.inProgress[path] = true
	defer delete(l.inProgress, path)

	names, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
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
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = pkg
	return pkg, nil
}
