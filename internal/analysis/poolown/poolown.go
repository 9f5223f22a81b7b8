// Package poolown enforces the exclusive-ownership discipline of pooled
// objects — the invariant that makes event pooling safe in a Time Warp
// kernel (see internal/timewarp/pool.go and DESIGN.md §3).
//
// The pools recycle *timewarp.Event and *proto.Packet aggressively: every
// release site asserts "no live structure still references this object".
// A retained pointer read after release observes a recycled object carrying
// a *different* event's fields — and because event identity feeds
// annihilation, the failure is not a crash but a silently corrupted
// simulation that diverges from the sequential oracle only under rollback
// pressure. PR 3 guards this with a property test (pooling must be
// observationally invisible); poolown turns the discipline into a vet
// failure at the offending line instead of a bench-time bisection.
//
// Three rules, all driven by the `//nicwarp:owns` / `//nicwarp:grows`
// annotation facts exported across packages:
//
//  1. Use after ownership transfer. Calling a function annotated
//     `//nicwarp:owns` transfers ownership of its pooled-pointer arguments
//     (release functions — pool.put, Kernel.Recycle — are the canonical
//     case, but so are route and deliverOne, which hand the event to
//     kernel-internal structures). Any later read of the same variable in
//     straight-line code is flagged. Unannotated callees are assumed to
//     borrow: they may use the argument during the call but retain
//     nothing.
//
//  2. Escaping stores. A pooled pointer written into a struct field, a
//     package-level variable, or a channel creates a second owner. Fields
//     that legitimately own pooled objects (an object's pending heap, the
//     history outputs rows, the free list itself) carry `//nicwarp:owns`
//     on the field declaration; everything else is flagged. A composite
//     literal's elements are stores too, keyed or positional, and a field
//     promoted through an embedded struct is judged by its declaration
//     there. Package-level variables and channel sends are never
//     sanctioned — the pools are per-kernel and single-threaded by design.
//
//  3. Arena interior pointers. A `//nicwarp:owns`-annotated arena (a slice
//     of value structs addressed by slot index, as in internal/des) may
//     grow; `&arena[i]` obtained before a call to a `//nicwarp:grows`
//     function dangles into the old backing array afterwards. Slot-index
//     staleness across recycling is guarded at runtime by the des
//     generation counters (event.seq); the statically checkable half is
//     that no interior pointer survives a growth call.
//
// The analysis is function-local and deliberately branch-conservative:
// a transfer inside a branch kills the variable only within that branch,
// so the analyzer under-reports rather than false-positives on merge
// points. Cross-function transfer is exactly what the annotation facts
// express.
package poolown

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"nicwarp/internal/analysis/framework"
)

// pooled lists, as "pkgpath.Name", the pooled object types whose pointers
// the analyzer tracks.
var pooled = map[string]bool{
	"nicwarp/internal/timewarp.Event": true,
	"nicwarp/internal/proto.Packet":   true,
}

// Analyzer implements the poolown check.
var Analyzer = &framework.Analyzer{
	Name: "poolown",
	Doc: "enforce exclusive ownership of pooled events/packets: no reads " +
		"after an //nicwarp:owns transfer, no stores outside //nicwarp:owns " +
		"fields, no arena interior pointers across //nicwarp:grows calls",
	Run:      run,
	FactsRun: factsRun,
}

// factsRun records the package's ownership annotations as exported facts:
// owns/grows on function declarations, owns on struct fields (an
// owning field whose type is a slice of value structs is an arena).
func factsRun(pass *framework.Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				fn := pass.TypesInfo.Defs[d.Name].(*types.Func)
				if pass.Annotated(d.Pos(), "owns") {
					pass.Facts.EnsureFunc(fn).Owns = true
				}
				if pass.Annotated(d.Pos(), "grows") {
					pass.Facts.EnsureFunc(fn).Grows = true
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, spec := range d.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					// An alias names no type to key field facts on, so its
					// fields cannot be declared owners.
					owner, named := pass.TypesInfo.Defs[ts.Name].Type().(*types.Named)
					if !ok || !named {
						continue
					}
					for _, field := range st.Fields.List {
						if !pass.Annotated(field.Pos(), "owns") {
							continue
						}
						arena := isArenaType(pass.TypesInfo.TypeOf(field.Type))
						for _, name := range field.Names {
							fact := pass.Facts.EnsureField(owner, name.Name)
							fact.Owns = true
							fact.Arena = arena
						}
					}
				}
			}
		}
	}
}

// isArenaType reports whether t is a growable arena: a slice of value
// structs addressed by index rather than pointer.
func isArenaType(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	_, isStruct := sl.Elem().Underlying().(*types.Struct)
	return isStruct
}

type checker struct {
	pass *framework.Pass
}

func run(pass *framework.Pass) {
	c := &checker{pass: pass}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c.checkStores(fn.Body)
			c.walkBlock(fn.Body.List, newState())
		}
	}
}

// isPooledPtr reports whether t is a pointer to a pooled type.
func (c *checker) isPooledPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return pooled[named.Obj().Pkg().Path()+"."+named.Obj().Name()]
}

// containsPooled reports whether t transitively holds pooled pointers
// (slices, arrays and maps of them — the shapes owning fields take).
func (c *checker) containsPooled(t types.Type) bool {
	if t == nil {
		return false // the `v := x.(type)` guard of a type switch has no type
	}
	if c.isPooledPtr(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return c.containsPooled(u.Elem())
	case *types.Array:
		return c.containsPooled(u.Elem())
	case *types.Map:
		return c.containsPooled(u.Elem())
	}
	return false
}

// ---- rule 2: escaping stores ----------------------------------------------

// checkStores flags pooled pointers stored where a second owner would hold
// them: non-//nicwarp:owns struct fields, package-level variables, channels,
// and composite-literal fields without the owning annotation.
func (c *checker) checkStores(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[0] // a multi-value call; per-result types below
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				c.checkStore(n, lhs, rhs)
			}
		case *ast.SendStmt:
			if c.containsPooled(c.pass.TypesInfo.TypeOf(n.Value)) &&
				!c.pass.Annotated(n.Pos(), "owns") {
				c.pass.Reportf(n.Pos(),
					"pooled %s sent on a channel: the pools are per-kernel and "+
						"single-threaded, a cross-goroutine owner breaks the exclusive-"+
						"ownership invariant", c.pass.TypesInfo.TypeOf(n.Value))
			}
		case *ast.CompositeLit:
			c.checkCompositeLit(n)
		}
		return true
	})
}

// checkStore applies the store rule to one assignment element.
func (c *checker) checkStore(stmt *ast.AssignStmt, lhs, rhs ast.Expr) {
	rt := c.pass.TypesInfo.TypeOf(rhs)
	carries := c.containsPooled(rt)
	// `x.f = append(x.f, ev)` carries a pooled value even when the slice's
	// element type does not show it ([]interface{}).
	if call, ok := rhs.(*ast.CallExpr); ok && !carries {
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
			for _, arg := range call.Args[1:] {
				carries = carries || c.containsPooled(c.pass.TypesInfo.TypeOf(arg))
			}
		}
	}
	if !carries || isNilIdent(rhs) || c.pass.Annotated(stmt.Pos(), "owns") {
		return
	}
	switch field, root := framework.StoreTarget(c.pass.TypesInfo, lhs); {
	case field != nil:
		if f := c.fieldFact(field); f == nil || !f.Owns {
			c.pass.Reportf(stmt.Pos(),
				"pooled %s stored in field %s, which is not declared an owner: a "+
					"retained pointer read after release observes a recycled object; "+
					"annotate the field declaration //nicwarp:owns <reason> if it "+
					"participates in the release discipline", rt, types.ExprString(lhs))
		}
	case root != nil:
		c.pass.Reportf(stmt.Pos(),
			"pooled %s stored in package-level %s: a global owner outlives "+
				"every release boundary; pooled objects may only be retained by "+
				"//nicwarp:owns fields", rt, types.ExprString(lhs))
	}
	// Otherwise a local: aliasing it is what rules 1 and 3 track.
}

// fieldFact returns the facts of the field sel selects, looked up on the
// struct that declares it, so a promoted field keeps its annotation.
func (c *checker) fieldFact(sel *types.Selection) *framework.FieldFact {
	return c.pass.Facts.FieldFact(framework.FieldOwner(sel), sel.Obj().Name())
}

// checkCompositeLit flags pooled pointers packed into composite-literal
// fields that are not declared owners, keyed (`stash{last: e}`) or
// positional (`stash{e, nil}`).
func (c *checker) checkCompositeLit(lit *ast.CompositeLit) {
	t := c.pass.TypesInfo.TypeOf(lit)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem() // the elided &T of an element in []*T{{...}}
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i, elt := range lit.Elts {
		val, key := elt, ""
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val, key = kv.Value, kv.Key.(*ast.Ident).Name
		} else {
			key = st.Field(i).Name() // a positional literal lists every field in order
		}
		if isNilIdent(val) || !c.containsPooled(c.pass.TypesInfo.TypeOf(val)) {
			continue
		}
		if f := c.pass.Facts.FieldFact(t, key); f != nil && f.Owns ||
			c.pass.Annotated(elt.Pos(), "owns") || c.pass.Annotated(lit.Pos(), "owns") {
			continue
		}
		c.pass.Reportf(elt.Pos(),
			"pooled %s packed into field %s.%s, which is not declared an owner; "+
				"annotate the field declaration //nicwarp:owns <reason>",
			c.pass.TypesInfo.TypeOf(val), types.TypeString(t, noQualifier), key)
	}
}

// noQualifier prints a type without package paths ("stash", not
// "poolown_bad.stash").
func noQualifier(*types.Package) string { return "" }

// ---- rules 1 and 3: straight-line dataflow --------------------------------

// deadMark records why a path became unusable.
type deadMark struct {
	what string // "transferred to route" / "may dangle after alloc"
	kind string // "transfer" or "arena"
}

// state is the per-block tracking: dead paths and live arena pointers.
type state struct {
	dead  map[string]deadMark
	arena map[string]string // local ident -> arena expression it points into
}

func newState() *state {
	return &state{dead: map[string]deadMark{}, arena: map[string]string{}}
}

func (s *state) clone() *state {
	n := newState()
	//nicwarp:ordered map-to-map copy, order-insensitive
	for k, v := range s.dead {
		n.dead[k] = v
	}
	//nicwarp:ordered map-to-map copy, order-insensitive
	for k, v := range s.arena {
		n.arena[k] = v
	}
	return n
}

// walkBlock processes statements in order, threading the tracking state.
func (c *checker) walkBlock(stmts []ast.Stmt, st *state) {
	for _, stmt := range stmts {
		c.walkStmt(stmt, st)
	}
}

// walkStmt handles one statement: its own expressions flow through the
// tracker; nested bodies recurse with a cloned state so a branch-local
// transfer never leaks to the merge point (branch-conservative: the
// analyzer under-reports rather than false-positives after merges).
func (c *checker) walkStmt(stmt ast.Stmt, st *state) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		c.flow(s, []ast.Expr{s.X}, nil, st)
	case *ast.AssignStmt:
		exprs := append([]ast.Expr{}, s.Rhs...)
		exprs = append(exprs, s.Lhs...)
		c.flow(s, exprs, s.Lhs, st)
	case *ast.DeclStmt:
		for _, spec := range s.Decl.(*ast.GenDecl).Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				c.flow(s, vs.Values, nil, st)
			}
		}
	case *ast.ReturnStmt:
		c.flow(s, s.Results, nil, st)
	case *ast.IncDecStmt:
		c.flow(s, []ast.Expr{s.X}, nil, st)
	case *ast.SendStmt:
		c.flow(s, []ast.Expr{s.Chan, s.Value}, nil, st)
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		c.flow(s, []ast.Expr{s.Cond}, nil, st)
		c.walkBlock(s.Body.List, st.clone())
		if s.Else != nil {
			c.walkStmt(s.Else, st.clone())
		}
	case *ast.BlockStmt:
		c.walkBlock(s.List, st)
	case *ast.ForStmt:
		inner := st.clone()
		if s.Init != nil {
			c.walkStmt(s.Init, inner)
		}
		if s.Cond != nil {
			c.flow(s, []ast.Expr{s.Cond}, nil, inner)
		}
		c.walkBlock(s.Body.List, inner)
		if s.Post != nil {
			c.walkStmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		c.flow(s, []ast.Expr{s.X}, nil, st)
		inner := st.clone()
		// Range variables are freshly assigned each iteration.
		for _, v := range [...]ast.Expr{s.Key, s.Value} {
			if v != nil {
				if p, ok := c.pathOf(v); ok {
					delete(inner.dead, p)
				}
			}
		}
		c.walkBlock(s.Body.List, inner)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			c.flow(s, []ast.Expr{s.Tag}, nil, st)
		}
		for _, cc := range s.Body.List {
			inner, cs := st.clone(), cc.(*ast.CaseClause)
			c.flow(s, cs.List, nil, inner)
			c.walkBlock(cs.Body, inner)
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		for _, cc := range s.Body.List {
			c.walkBlock(cc.(*ast.CaseClause).Body, st.clone())
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			c.walkBlock(cc.(*ast.CommClause).Body, st.clone())
		}
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, st)
	// Deferred/concurrent execution escapes straight-line order; the reads
	// happen later, so only check them against the current state.
	case *ast.DeferStmt:
		c.reportDeadReads(s.Call, st, nil)
	case *ast.GoStmt:
		c.reportDeadReads(s.Call, st, nil)
	}
}

// flow checks the statement's expressions against the dead set, then
// applies its revives (assignment targets) and kills (ownership transfers,
// arena growth).
func (c *checker) flow(stmt ast.Stmt, exprs []ast.Expr, assigns []ast.Expr, st *state) {
	// Identify ownership transfers and growth calls in this statement.
	type kill struct {
		path string
		mark deadMark
	}
	var kills []kill
	skip := map[ast.Node]bool{}
	grows := false
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := framework.Callee(c.pass, call)
			fact := c.pass.Facts.FuncFact(fn)
			if fact == nil {
				return true
			}
			if fact.Grows {
				grows = true
			}
			if fact.Owns {
				args := call.Args
				for _, arg := range args {
					if !c.isPooledPtr(c.pass.TypesInfo.TypeOf(arg)) {
						continue
					}
					if p, ok := c.pathOf(arg); ok {
						kills = append(kills, kill{p, deadMark{
							what: "ownership transferred to " + fn.Name(),
							kind: "transfer",
						}})
						// The transferring read itself is fine — unless the
						// path is already dead, in which case this is a
						// double release and must be reported.
						if _, already := st.dead[p]; !already {
							skip[arg] = true
						}
					}
				}
				// Method receivers are not consumed; only arguments are.
			}
			return true
		})
	}
	// Exact assignment targets are writes, not reads.
	for _, a := range assigns {
		if id, ok := ast.Unparen(a).(*ast.Ident); ok {
			skip[id] = true
		} else if sel, ok := ast.Unparen(a).(*ast.SelectorExpr); ok {
			skip[sel] = true
		}
	}
	for _, e := range exprs {
		c.reportDeadReads(e, st, skip)
	}
	// Revive assignment targets (the variable now holds a fresh value) and
	// record new arena pointers.
	for i, a := range assigns {
		if p, ok := c.pathOf(a); ok {
			delete(st.dead, p)
			delete(st.arena, p)
			// A fresh value also revives every sub-path tracked under it.
			//nicwarp:ordered merging dead sets, order-insensitive
			for k := range st.dead {
				if strings.HasPrefix(k, p+".") {
					delete(st.dead, k)
				}
			}
			if as, ok := stmt.(*ast.AssignStmt); ok && len(as.Rhs) == len(as.Lhs) {
				if arenaExpr := c.arenaElemAddr(as.Rhs[i]); arenaExpr != "" {
					st.arena[p] = arenaExpr
				}
			}
		}
	}
	// Apply kills.
	for _, k := range kills {
		st.dead[k.path] = k.mark
	}
	if grows {
		//nicwarp:ordered merging arena sets, order-insensitive
		for local, arenaExpr := range st.arena {
			st.dead[local] = deadMark{
				what: "points into " + arenaExpr + ", which a //nicwarp:grows call may have reallocated",
				kind: "arena",
			}
			delete(st.arena, local)
		}
	}
}

// reportDeadReads flags every read of a dead path inside expr, skipping the
// nodes that this statement itself kills or writes.
func (c *checker) reportDeadReads(expr ast.Expr, st *state, skip map[ast.Node]bool) {
	if len(st.dead) == 0 {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		if skip[n] {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		p, ok := c.pathOf(e)
		if !ok {
			return true
		}
		// The path itself, or any prefix of it, being dead makes this a
		// read through a released object.
		for probe := p; probe != ""; probe = parentPath(probe) {
			if mark, dead := st.dead[probe]; dead {
				switch mark.kind {
				case "arena":
					c.pass.Reportf(e.Pos(),
						"use of %s after arena growth: %s; re-derive the pointer "+
							"from the slot index after the call", p, mark.what)
				default:
					c.pass.Reportf(e.Pos(),
						"use of %s after release: %s, and a released object may be "+
							"recycled at any allocation; the pool's exclusive-ownership "+
							"contract forbids this read", p, mark.what)
				}
				return false
			}
		}
		// Don't descend into a matched selector's parts twice.
		_, isSel := e.(*ast.SelectorExpr)
		return !isSel
	})
}

// pathOf renders an ident or field-selector chain rooted at a local
// identifier as a stable string path ("e", "e.ev"); other expressions are
// not tracked.
func (c *checker) pathOf(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.ObjectOf(e)
		if v, ok := obj.(*types.Var); ok && !framework.IsPkgLevel(v) {
			return e.Name, true
		}
		return "", false
	case *ast.SelectorExpr:
		sel, ok := c.pass.TypesInfo.Selections[e]
		if !ok || sel.Kind() != types.FieldVal {
			return "", false
		}
		base, ok := c.pathOf(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	}
	return "", false
}

// parentPath strips the last selector segment ("e.ev" -> "e", "e" -> "").
func parentPath(p string) string {
	if i := strings.LastIndexByte(p, '.'); i >= 0 {
		return p[:i]
	}
	return ""
}

// arenaElemAddr returns the arena expression when e takes the address of
// an element of an arena field (`&x.f[i]` with f declared //nicwarp:owns
// and arena-shaped), and "" otherwise.
func (c *checker) arenaElemAddr(e ast.Expr) string {
	ue, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || ue.Op != token.AND {
		return ""
	}
	ix, ok := ast.Unparen(ue.X).(*ast.IndexExpr)
	if !ok {
		return ""
	}
	sel, _ := ast.Unparen(ix.X).(*ast.SelectorExpr)
	field, ok := c.pass.TypesInfo.Selections[sel]
	if !ok {
		return ""
	}
	if f := c.fieldFact(field); f == nil || !f.Arena {
		return ""
	}
	return types.ExprString(ix.X)
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
