package framework

import (
	"go/token"
	"go/types"
	"testing"
)

// fakeFunc builds a package-level *types.Func for key tests.
func fakeFunc(pkg *types.Package, name string) *types.Func {
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	return types.NewFunc(token.NoPos, pkg, name, sig)
}

// fakeMethod builds a method on a named type of pkg.
func fakeMethod(pkg *types.Package, recvType *types.Named, name string) *types.Func {
	recv := types.NewVar(token.NoPos, pkg, "r", types.NewPointer(recvType))
	sig := types.NewSignatureType(recv, nil, nil, nil, nil, false)
	return types.NewFunc(token.NoPos, pkg, name, sig)
}

func fakeNamed(pkg *types.Package, name string) *types.Named {
	tn := types.NewTypeName(token.NoPos, pkg, name, nil)
	return types.NewNamed(tn, types.NewStruct(nil, nil), nil)
}

func TestFactKeys(t *testing.T) {
	pkg := types.NewPackage("example.com/p", "p")
	named := fakeNamed(pkg, "T")
	if got := FuncKey(fakeFunc(pkg, "F")); got != "example.com/p.F" {
		t.Errorf("FuncKey(func) = %q", got)
	}
	if got := FuncKey(fakeMethod(pkg, named, "M")); got != "example.com/p.(T).M" {
		t.Errorf("FuncKey(method) = %q", got)
	}
	if got := FieldKey(named, "f"); got != "example.com/p.(T).f" {
		t.Errorf("FieldKey = %q", got)
	}
	if got := FuncKey(nil); got != "" {
		t.Errorf("FuncKey(nil) = %q, want empty", got)
	}
}

// TestFactSetRoundTrip: a fact recorded through one symbol object is read
// back through any object with the same stable key — the property that
// makes facts written while visiting a dependency visible to its importers.
func TestFactSetRoundTrip(t *testing.T) {
	pkg := types.NewPackage("example.com/p", "p")
	named := fakeNamed(pkg, "T")

	fs := NewFactSet()
	ff := fs.EnsureFunc(fakeFunc(pkg, "Consume"))
	ff.Owns = true
	ff.MayAlloc = true
	ff.AllocWhat = "make([]byte, n)"
	fs.EnsureField(named, "held").Owns = true
	fs.EnsureField(named, "arena").Arena = true

	gf := fs.FuncFact(fakeFunc(pkg, "Consume"))
	if gf == nil || !gf.Owns || !gf.MayAlloc || gf.AllocWhat != "make([]byte, n)" {
		t.Errorf("func fact did not round-trip: %+v", gf)
	}
	if f := fs.FieldFact(fakeNamed(pkg, "T"), "held"); f == nil || !f.Owns {
		t.Errorf("field fact held did not round-trip: %+v", f)
	}
	if f := fs.FieldFact(named, "arena"); f == nil || !f.Arena {
		t.Errorf("field fact arena did not round-trip: %+v", f)
	}
	if fs.FuncFact(fakeFunc(pkg, "Other")) != nil || fs.FieldFact(named, "other") != nil {
		t.Error("lookup of an unrecorded symbol returned a fact")
	}
	if fs.EnsureFunc(nil) != nil {
		t.Error("EnsureFunc(nil) should have no stable key")
	}
}
