package framework

import (
	"go/types"
	"sort"
)

// This file implements the cross-package facts layer: the mechanism by
// which an analyzer's per-function conclusions (ownership transfer,
// allocation purity) computed while analyzing one package become available
// when a *different* package calling into it is analyzed later. It mirrors
// golang.org/x/tools' analysis.Fact model in spirit, but with a single
// process-wide FactSet keyed by stable symbol strings instead of
// gob-encoded per-object side tables: the driver loads the whole module in
// one process and walks packages in dependency order, so facts written
// while visiting internal/vtime are simply *there* when internal/timewarp
// is visited.

// FuncFact is everything the suite knows about one function.
type FuncFact struct {
	// Owns: the function takes ownership of pooled-pointer arguments —
	// callers must not touch those arguments after the call (poolown).
	Owns bool
	// Grows: the function may grow an owned arena, so interior pointers
	// into that arena obtained before the call are dangling after it.
	Grows bool
	// MayAlloc: the function (transitively) may allocate; AllocWhat names
	// the first offending construct for the diagnostic chain.
	MayAlloc  bool
	AllocWhat string
}

// FieldFact is everything the suite knows about one struct field.
type FieldFact struct {
	// Owns: the field is a declared owner of pooled pointers stored into
	// it (poolown's `//nicwarp:owns` on the field declaration).
	Owns bool
	// Arena: the field is a growable arena slice; interior pointers into
	// it must not survive a Grows call.
	Arena bool
}

// FactSet is the process-wide fact store shared by every pass of a run.
type FactSet struct {
	funcs  map[string]*FuncFact
	fields map[string]*FieldFact
}

// NewFactSet returns an empty fact store.
func NewFactSet() *FactSet {
	return &FactSet{
		funcs:  make(map[string]*FuncFact),
		fields: make(map[string]*FieldFact),
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

// FieldFact returns the recorded fact for field of owner, a named struct
// type or a pointer to one, or nil.
func (fs *FactSet) FieldFact(owner types.Type, field string) *FieldFact {
	if p, ok := owner.(*types.Pointer); ok {
		owner = p.Elem()
	}
	named, ok := owner.(*types.Named)
	if !ok {
		return nil
	}
	return fs.fields[FieldKey(named, field)]
}

// EnsureField returns the (created if absent) fact record for owner.field.
func (fs *FactSet) EnsureField(owner *types.Named, field string) *FieldFact {
	key := FieldKey(owner, field)
	f := fs.fields[key]
	if f == nil {
		f = &FieldFact{}
		fs.fields[key] = f
	}
	return f
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
