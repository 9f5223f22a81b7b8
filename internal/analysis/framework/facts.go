package framework

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/types"
	"os"
	"sort"
	"strings"
)

// This file implements the cross-package facts layer: the mechanism by
// which an analyzer's per-function conclusions (ownership transfer,
// allocation purity, entropy taint) computed while analyzing one package
// become available when a *different* package calling into it is analyzed
// later. It mirrors golang.org/x/tools' analysis.Fact model in spirit, but
// with a single process-wide FactSet keyed by stable symbol strings instead
// of gob-encoded per-object side tables: the standalone driver loads the
// whole module in one process and walks packages in dependency order, so
// facts written while visiting internal/vtime are simply *there* when
// internal/timewarp is visited. The set serializes to JSON for two
// consumers: the unitchecker protocol (facts ride in .vetx files) and the
// CI facts cache (validated against per-package source hashes).

// FuncFact is everything the suite knows about one function.
type FuncFact struct {
	// Owns: the function takes ownership of pooled-pointer arguments —
	// callers must not touch those arguments after the call (poolown).
	Owns bool `json:"owns,omitempty"`
	// Borrows: the function promises to retain no pooled-pointer argument
	// past its return (poolown; documentation-grade, declared not proven).
	Borrows bool `json:"borrows,omitempty"`
	// Grows: the function may grow an owned arena, so interior pointers
	// into that arena obtained before the call are dangling after it.
	Grows bool `json:"grows,omitempty"`
	// Hot: the function is a declared //nicwarp:hotpath root.
	Hot bool `json:"hot,omitempty"`
	// MayAlloc: the function (transitively) may allocate; AllocWhat names
	// the first offending construct for the diagnostic chain.
	MayAlloc  bool   `json:"may_alloc,omitempty"`
	AllocWhat string `json:"alloc_what,omitempty"`
	// Tainted: the function returns a value derived from ambient entropy
	// (wall clock, math/rand, map iteration order); TaintWhat names the
	// source.
	Tainted   bool   `json:"tainted,omitempty"`
	TaintWhat string `json:"taint_what,omitempty"`
}

// FieldFact is everything the suite knows about one struct field.
type FieldFact struct {
	// Owns: the field is a declared owner of pooled pointers stored into
	// it (poolown's `//nicwarp:owns` on the field declaration).
	Owns bool `json:"owns,omitempty"`
	// Arena: the field is a growable arena slice; interior pointers into
	// it must not survive a Grows call.
	Arena bool `json:"arena,omitempty"`
}

// FactSet is the process-wide fact store shared by every pass of a run.
type FactSet struct {
	funcs  map[string]*FuncFact
	fields map[string]*FieldFact
	hashes map[string]string // package path -> source hash
}

// NewFactSet returns an empty fact store.
func NewFactSet() *FactSet {
	return &FactSet{
		funcs:  make(map[string]*FuncFact),
		fields: make(map[string]*FieldFact),
		hashes: make(map[string]string),
	}
}

// FuncKey derives the stable symbol key for a function or method:
// "pkgpath.Name" for functions, "pkgpath.(Recv).Name" for methods.
func FuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + ".(" + named.Obj().Name() + ")." + fn.Name()
		}
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// FieldKey derives the stable symbol key for a struct field accessed on a
// value of the named type owner: "pkgpath.(Type).field".
func FieldKey(owner *types.Named, field string) string {
	if owner == nil || owner.Obj() == nil || owner.Obj().Pkg() == nil {
		return ""
	}
	return owner.Obj().Pkg().Path() + ".(" + owner.Obj().Name() + ")." + field
}

// FuncFact returns the recorded fact for fn, or nil.
func (fs *FactSet) FuncFact(fn *types.Func) *FuncFact {
	return fs.funcs[FuncKey(fn)]
}

// EnsureFunc returns the (created if absent) fact record for fn, or nil for
// functions without a stable key (func literals, methods of unnamed
// interfaces).
func (fs *FactSet) EnsureFunc(fn *types.Func) *FuncFact {
	key := FuncKey(fn)
	if key == "" {
		return nil
	}
	f := fs.funcs[key]
	if f == nil {
		f = &FuncFact{}
		fs.funcs[key] = f
	}
	return f
}

// FieldFact returns the recorded fact for owner.field, or nil.
func (fs *FactSet) FieldFact(owner *types.Named, field string) *FieldFact {
	return fs.fields[FieldKey(owner, field)]
}

// EnsureField returns the (created if absent) fact record for owner.field.
func (fs *FactSet) EnsureField(owner *types.Named, field string) *FieldFact {
	key := FieldKey(owner, field)
	if key == "" {
		return nil
	}
	f := fs.fields[key]
	if f == nil {
		f = &FieldFact{}
		fs.fields[key] = f
	}
	return f
}

// SetHash records the source hash of a fully fact-computed package.
func (fs *FactSet) SetHash(pkgPath, hash string) { fs.hashes[pkgPath] = hash }

// FreshFor reports whether fs already holds facts for pkg computed from
// exactly its current sources.
func (fs *FactSet) FreshFor(pkg *Package) bool {
	h, err := PackageHash(pkg)
	if err != nil {
		return false
	}
	return fs.hashes[pkg.Path] == h
}

// PackageHash hashes a package's source files (names and contents), the
// validity key for cached facts.
func PackageHash(pkg *Package) (string, error) {
	names := make([]string, 0, len(pkg.Files))
	for _, f := range pkg.Files {
		names = append(names, pkg.Fset.Position(f.FileStart).Filename)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", name, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// factFile is the serialized form: versioned so stale cache files from
// older suite revisions are discarded wholesale.
type factFile struct {
	Version int                   `json:"version"`
	Hashes  map[string]string     `json:"hashes,omitempty"`
	Funcs   map[string]*FuncFact  `json:"funcs,omitempty"`
	Fields  map[string]*FieldFact `json:"fields,omitempty"`
}

// factFileVersion bumps whenever fact semantics change.
const factFileVersion = 1

// MarshalJSON serializes the set (deterministically, via sorted-key maps —
// encoding/json sorts map keys itself).
func (fs *FactSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(factFile{
		Version: factFileVersion,
		Hashes:  fs.hashes,
		Funcs:   fs.funcs,
		Fields:  fs.fields,
	})
}

// UnmarshalJSON replaces the set's contents with the serialized form; a
// version mismatch yields an empty set rather than an error so stale cache
// files self-invalidate.
func (fs *FactSet) UnmarshalJSON(data []byte) error {
	var f factFile
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	*fs = *NewFactSet()
	if f.Version != factFileVersion {
		return nil
	}
	//nicwarp:ordered map-to-map copy, order-insensitive
	for k, v := range f.Hashes {
		fs.hashes[k] = v
	}
	//nicwarp:ordered map-to-map copy, order-insensitive
	for k, v := range f.Funcs {
		fs.funcs[k] = v
	}
	//nicwarp:ordered map-to-map copy, order-insensitive
	for k, v := range f.Fields {
		fs.fields[k] = v
	}
	return nil
}

// Save writes the set to path.
func (fs *FactSet) Save(path string) error {
	data, err := json.MarshalIndent(fs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadFacts reads a fact file; a missing file yields an empty set.
func LoadFacts(path string) (*FactSet, error) {
	fs := NewFactSet()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return fs, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, fs); err != nil {
		return nil, fmt.Errorf("parsing facts file %s: %v", path, err)
	}
	return fs, nil
}

// Merge copies every fact and hash from other into fs unconditionally. The
// unitchecker uses it to import dependency facts from .vetx files, where
// the go command's build graph — not a source hash — guarantees freshness.
func (fs *FactSet) Merge(other *FactSet) {
	//nicwarp:ordered map-to-map copy, order-insensitive
	for k, v := range other.funcs {
		fs.funcs[k] = v
	}
	//nicwarp:ordered map-to-map copy, order-insensitive
	for k, v := range other.fields {
		fs.fields[k] = v
	}
	//nicwarp:ordered map-to-map copy, order-insensitive
	for k, v := range other.hashes {
		fs.hashes[k] = v
	}
}

// MergeFresh copies facts from other into fs for every package in pkgs
// whose recorded hash in other matches its current sources, and returns the
// import paths merged. The driver uses this to reuse a CI facts cache: only
// hash-validated packages skip their facts pass.
func (fs *FactSet) MergeFresh(other *FactSet, pkgs []*Package) []string {
	var fresh []string
	for _, pkg := range pkgs {
		h, err := PackageHash(pkg)
		if err != nil || other.hashes[pkg.Path] != h {
			continue
		}
		prefix := pkg.Path + "."
		//nicwarp:ordered map-to-map copy, order-insensitive
		for k, v := range other.funcs {
			if strings.HasPrefix(k, prefix) {
				fs.funcs[k] = v
			}
		}
		//nicwarp:ordered map-to-map copy, order-insensitive
		for k, v := range other.fields {
			if strings.HasPrefix(k, prefix) {
				fs.fields[k] = v
			}
		}
		fs.hashes[pkg.Path] = h
		fresh = append(fresh, pkg.Path)
	}
	sort.Strings(fresh)
	return fresh
}

// Toposort orders packages so that every package follows all of its
// (in-set) dependencies — the order in which facts must be computed. Ties
// and roots resolve by import path, keeping runs deterministic.
func Toposort(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	sorted := make([]*Package, 0, len(pkgs))
	state := make(map[string]int, len(pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(p *Package)
	visit = func(p *Package) {
		switch state[p.Path] {
		case 1, 2:
			return
		}
		state[p.Path] = 1
		imports := p.Types.Imports()
		paths := make([]string, 0, len(imports))
		for _, imp := range imports {
			paths = append(paths, imp.Path())
		}
		sort.Strings(paths)
		for _, path := range paths {
			if dep, ok := byPath[path]; ok {
				visit(dep)
			}
		}
		state[p.Path] = 2
		sorted = append(sorted, p)
	}
	roots := make([]*Package, len(pkgs))
	copy(roots, pkgs)
	sort.Slice(roots, func(i, j int) bool { return roots[i].Path < roots[j].Path })
	for _, p := range roots {
		visit(p)
	}
	return sorted
}
