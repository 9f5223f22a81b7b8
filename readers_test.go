package nicwarp

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
	"testing"

	"nicwarp/internal/analysis/framework"
)

// readerAllowlist is the closed list of declarations the reader rule of
// DESIGN.md §8 accepts without a read in non-test code. Each key is
// "pkg.Owner.Name" as the test reports it; each value names the reader.
var readerAllowlist = map[string]string{
	// (a) Read only by a named behavioural test (DESIGN.md §8).
	"timewarp.Stats.Stragglers":           "TestStragglerTriggersRollback",
	"timewarp.Stats.Zombies":              "TestAntiBeforePositiveZombie",
	"timewarp.Stats.Annihilations":        "TestAntiAnnihilatesUnprocessed, TestAntiRollsBackProcessed",
	"nic.Stats.RxDelivered":               "TestEndToEndForwarding, TestCreditWindowBackpressure",
	"nic.Stats.RxConsumed":                "TestReceiveVerdictConsume, TestConsumedPacketBelongsToFirmware",
	"nic.Stats.FirmwareCycles":            "TestDoorbellInvokesFirmware, TestBatchFrameCyclePrice",
	"des.Resource.Jobs":                   "TestResourceConservation, TestDoCategorizesWork",
	"invariant.Report.Sent":               "TestFaultFreeInvariantsHold: evidence the checker saw traffic",
	"invariant.Report.Delivered":          "TestFaultFreeInvariantsHold: evidence the checker saw traffic",
	"invariant.Report.Discarded":          "TestFaultFreeInvariantsHold: evidence the checker saw traffic",
	"invariant.Report.Duplicates":         "TestConservationCatchesLeaksAndGhosts: evidence the checker saw duplicates",
	"invariant.Report.GVTCommits":         "TestFaultFreeInvariantsHold: evidence the checker saw commits",
	"timewarp.SequentialResult.Processed": "TestRequestQuotaDistribution and the kernel's oracle checks",
	"runner.Result.Attempts":              "TestFailureIsolation, TestCacheWarmRerun",
	// (b) Declared or set only in cmd/bench, which a change judged by the
	// benchmark may not edit.
	"bench.probeSink":    "written by the probes so the compiler keeps their work",
	"bench.workload.why": "read only by cmd/bench's TestHarnessMatchesBenchmarkFile",
}

// TestEveryFieldHasAReader holds the reader rule of DESIGN.md §8: every
// struct field, package-level constant or variable, and parameter of a
// function that implements no interface, declared in non-test code, must be
// read somewhere in non-test code. Writes do not count: the whole left side
// of an assignment (up to a pointer, slice or map it writes through), the
// operand of ++/--, a key in a keyed struct literal, and the receiver of
// stats.Counter.Inc/Add or stats.BusyTime.AddInterval. Every field of a
// struct compared with == or !=, used as a map key, or carrying json tags
// counts as read. The only exceptions are readerAllowlist's.
func TestEveryFieldHasAReader(t *testing.T) {
	l, err := framework.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns("./...")
	if err != nil {
		t.Fatal(err)
	}
	// A broken scan finds nothing, and then every allowlist entry is stale.
	seen := map[string]bool{}
	for _, u := range unreadDeclarations(pkgs) {
		seen[u.key] = true
		if _, ok := readerAllowlist[u.key]; !ok {
			t.Errorf("%s: %s has no reader in non-test code", u.pos, u.key)
		}
	}
	for key := range readerAllowlist {
		if !seen[key] {
			t.Errorf("allowlist entry %s is stale: it is gone or has a reader now", key)
		}
	}
}

type unreadDecl struct {
	key string
	pos token.Position
}

// readerScan classifies every use of an in-scope declaration as a read or a
// write.
type readerScan struct {
	declared map[types.Object]string // object -> reported key
	read     map[types.Object]bool
	writes   map[*ast.Ident]bool // identifiers used as write targets
	info     *types.Info
}

func unreadDeclarations(pkgs []*framework.Package) []unreadDecl {
	s := &readerScan{
		declared: map[types.Object]string{},
		read:     map[types.Object]bool{},
		writes:   map[*ast.Ident]bool{},
	}
	fixed := fixedSignatures(pkgs)
	for _, p := range pkgs {
		s.info = p.Info
		for _, f := range p.Files {
			s.declare(p, f, fixed)
			s.findWrites(f)
		}
	}
	for _, p := range pkgs {
		s.info = p.Info
		s.classifyUses(p)
	}
	var out []unreadDecl
	fset := pkgs[0].Fset
	for obj, key := range s.declared {
		if !s.read[obj] {
			out = append(out, unreadDecl{key: key, pos: fset.Position(obj.Pos())})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// declare records the package's in-scope declarations under their keys and
// marks as read every field of a struct type that carries json tags.
func (s *readerScan) declare(p *framework.Package, f *ast.File, fixed map[*types.Func]bool) {
	pkgName := path.Base(p.Path)
	scope := p.Types.Scope()
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.ValueSpec:
					for _, name := range sp.Names {
						if obj := p.Info.Defs[name]; obj != nil && name.Name != "_" && obj.Parent() == scope {
							s.declared[obj] = pkgName + "." + name.Name
						}
					}
				}
			}
		case *ast.FuncDecl:
			fn, _ := p.Info.Defs[d.Name].(*types.Func)
			if fn == nil || d.Body == nil || fixed[fn] {
				continue
			}
			owner := pkgName + "." + d.Name.Name
			if d.Recv != nil {
				owner = pkgName + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
			}
			for _, field := range d.Type.Params.List {
				for _, name := range field.Names {
					if obj := p.Info.Defs[name]; obj != nil && name.Name != "_" {
						s.declared[obj] = owner + " parameter " + name.Name
					}
				}
			}
		}
	}
	// Struct fields, named after the type declaration that encloses them.
	owner := ""
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			owner = n.Name.Name
		case *ast.FuncDecl:
			owner = n.Name.Name
		case *ast.StructType:
			st, _ := p.Info.Types[n].Type.(*types.Struct)
			for _, field := range n.Fields.List {
				if field.Tag != nil && strings.Contains(field.Tag.Value, `json:"`) && st != nil {
					s.readAllFields(st)
				}
				names := field.Names
				if len(names) == 0 {
					names = []*ast.Ident{embeddedName(field.Type)}
				}
				for _, name := range names {
					obj := p.Info.Defs[name]
					if obj == nil || name.Name == "_" {
						continue
					}
					s.declared[obj] = pkgName + "." + owner + "." + obj.Name()
					if len(field.Names) == 0 && hasMethods(obj.Type()) {
						s.read[obj] = true // read by every call of a promoted method
					}
				}
			}
		}
		return true
	})
}

// findWrites records the identifiers that are write targets in f.
func (s *readerScan) findWrites(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				s.markWrite(lhs)
			}
		case *ast.IncDecStmt:
			s.markWrite(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				if n.Key != nil {
					s.markWrite(n.Key)
				}
				if n.Value != nil {
					s.markWrite(n.Value)
				}
			}
		case *ast.CompositeLit:
			if _, ok := derefUnder(s.info.TypeOf(n)).(*types.Struct); ok {
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							s.writes[id] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isStatsWrite(s.info, sel) {
				s.markWrite(sel.X)
			}
		}
		return true
	})
}

// markWrite marks the targets of an assignment to e. A selector or index
// written through a pointer, slice or map reads the reference; anything
// else on the left side is written.
func (s *readerScan) markWrite(e ast.Expr) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		s.markWrite(e.X)
	case *ast.Ident:
		s.writes[e] = true
	case *ast.SelectorExpr:
		s.writes[e.Sel] = true
		if !isReference(s.info.TypeOf(e.X)) {
			s.markWrite(e.X)
		}
	case *ast.IndexExpr:
		if !isReference(s.info.TypeOf(e.X)) {
			s.markWrite(e.X)
		}
	}
}

// classifyUses marks every in-scope object used in a non-write position as
// read, including embedded fields a promoted selection passes through and
// every field of a struct compared with ==/!= or used as a map key.
func (s *readerScan) classifyUses(p *framework.Package) {
	for id, obj := range p.Info.Uses {
		if !s.writes[id] {
			s.read[origin(obj)] = true
		}
	}
	for _, sel := range p.Info.Selections {
		typ := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			st, ok := derefUnder(typ).(*types.Struct)
			if !ok {
				break
			}
			s.read[st.Field(i).Origin()] = true
			typ = st.Field(i).Type()
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
				if st, ok := p.Info.TypeOf(b.X).Underlying().(*types.Struct); ok {
					s.readAllFields(st)
				}
			}
			return true
		})
	}
	for _, tv := range p.Info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			if st, ok := m.Key().Underlying().(*types.Struct); ok {
				s.readAllFields(st)
			}
		}
	}
}

// readAllFields marks every field of st as read, and the fields of the
// struct values nested in it.
func (s *readerScan) readAllFields(st *types.Struct) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i).Origin()
		s.read[f] = true
		if inner, ok := f.Type().Underlying().(*types.Struct); ok {
			s.readAllFields(inner)
		}
	}
}

// isStatsWrite reports whether sel is stats.Counter.Inc/Add or
// stats.BusyTime.AddInterval.
func isStatsWrite(info *types.Info, sel *ast.SelectorExpr) bool {
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "nicwarp/internal/stats" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named, ok := types.Unalias(derefType(recv.Type())).(*types.Named)
	if !ok {
		return false
	}
	switch named.Obj().Name() + "." + fn.Name() {
	case "Counter.Inc", "Counter.Add", "BusyTime.AddInterval":
		return true
	}
	return false
}

// fixedSignatures returns the functions whose parameter lists something
// else dictates: methods an interface the packages mention requires, and
// functions referred to other than by a call, whose signature is fixed by
// the function type they are passed as.
func fixedSignatures(pkgs []*framework.Package) map[*types.Func]bool {
	seen := map[*types.Interface]bool{}
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	fixed := map[*types.Func]bool{}
	var methods []*types.Func
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			addIface(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					addIface(sig.Params().At(i).Type())
				}
			}
		}
		for _, obj := range p.Info.Defs {
			switch obj := obj.(type) {
			case *types.TypeName:
				addIface(obj.Type())
			case *types.Func:
				if obj.Type().(*types.Signature).Recv() != nil {
					methods = append(methods, obj)
				}
			}
		}
		called := map[*ast.Ident]bool{}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					switch fun := ast.Unparen(call.Fun).(type) {
					case *ast.Ident:
						called[fun] = true
					case *ast.SelectorExpr:
						called[fun.Sel] = true
					case *ast.IndexExpr:
						if id, ok := fun.X.(*ast.Ident); ok {
							called[id] = true
						}
					}
				}
				return true
			})
		}
		for id, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && !called[id] {
				fixed[fn.Origin()] = true
			}
		}
	}
	for _, fn := range methods {
		if implementsInterface(fn, ifaces) {
			fixed[fn] = true
		}
	}
	return fixed
}

// implementsInterface reports whether fn is a method that some interface
// in ifaces requires of its receiver type.
func implementsInterface(fn *types.Func, ifaces []*types.Interface) bool {
	base := derefType(fn.Type().(*types.Signature).Recv().Type())
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(base, it) || types.Implements(types.NewPointer(base), it) {
				return true
			}
		}
	}
	return false
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

func embeddedName(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.StarExpr:
		return embeddedName(e.X)
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr:
		return embeddedName(e.X)
	case *ast.IndexListExpr:
		return embeddedName(e.X)
	case *ast.Ident:
		return e
	}
	return nil
}

// origin maps a field or parameter of an instantiated generic to the
// declared one.
func origin(obj types.Object) types.Object {
	if v, ok := obj.(*types.Var); ok {
		return v.Origin()
	}
	return obj
}

// hasMethods reports whether embedding a field of type t promotes methods.
func hasMethods(t types.Type) bool {
	if _, ok := t.Underlying().(*types.Pointer); !ok && !types.IsInterface(t) {
		t = types.NewPointer(t)
	}
	return types.NewMethodSet(t).Len() > 0
}

func derefType(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func derefUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return derefType(t).Underlying()
}

// isReference reports whether writing through a value of type t (a field,
// an element) leaves t itself unchanged.
func isReference(t types.Type) bool {
	if t == nil {
		return true
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}
