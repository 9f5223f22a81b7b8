// Package hotalloc certifies the zero-allocation contract of declared hot
// paths. PR 3 made the kernel's per-event path allocation-free (pooled
// events, ring-buffer histories, intrusive heaps) and PR 5's benchmark
// regression gate measures allocs/op — but a benchmark only covers the
// configurations it runs, and one stray closure or interface conversion in
// a rarely-taken branch reintroduces GC pressure that shows up as rollback
// jitter long after the commit that caused it. hotalloc makes the contract
// a compile-time property of the source.
//
// A function annotated `//nicwarp:hotpath <reason>` is a hot root. The rule
// applies to the root and everything it dominates in the call graph: every
// same-package function it (transitively) calls is itself held to the
// allocation-free standard, and cross-package callees are checked against
// their exported MayAlloc facts, computed for every function of every
// loaded package during the facts pass. Removing an annotation from a root
// does not excuse its callees if another hot root still reaches them.
//
// A call through an interface is dynamic and normally counts as allocating.
// An interface method whose declaration carries `//nicwarp:hotpath` is the
// exception: the contract moves onto the interface. Every implementation
// in the declaring package becomes a hot root, and callers anywhere judge
// the call by those implementations' facts — which is what lets firmware
// hooks, written against the nic.API capability interface, be hot roots
// at all. Implementations in other packages (test doubles) are not checked.
//
// Inside hot code the following constructs are flagged:
//
//   - func literals (closure allocation + captured-variable escape)
//   - make, new, &T{} and slice/map/pointer composite literals
//   - append (amortized growth is still growth; pre-size instead)
//   - string concatenation and conversions that allocate ([]byte(s), s+t)
//   - interface boxing: passing, assigning or returning a concrete value
//     as an interface
//   - map iteration (hash-order walk; also a determinism hazard — see the
//     maprange analyzer)
//   - calls to functions that (transitively) may allocate, with the chain
//     of evidence in the message
//
// Two escapes keep the rule honest rather than ornamental: a block whose
// final statement is panic(...) is a cold path (error formatting before a
// crash is fine), and a site annotated `//nicwarp:alloc <reason>` is an
// acknowledged amortized allocation (a pool refill, a ring growth) that the
// benchmark gate, not the analyzer, polices.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"nicwarp/internal/analysis/framework"
)

// Analyzer implements the hotalloc check.
var Analyzer = &framework.Analyzer{
	Name: "hotalloc",
	Doc: "forbid allocation in //nicwarp:hotpath functions and everything " +
		"they dominate in the call graph: closures, make/new/append, " +
		"interface boxing, map iteration, and calls to may-allocate functions",
	Run:      run,
	FactsRun: factsRun,
}

// allocSite is one allocating construct found in a function body.
type allocSite struct {
	pos  token.Pos
	what string
}

// fnInfo is the per-function summary the package-local fixpoint runs on.
type fnInfo struct {
	fn      *types.Func
	hot     bool
	sites   []allocSite   // local allocating constructs (escapes applied)
	callees []*types.Func // statically resolved callees
	calls   map[*types.Func]token.Pos
	unknown []allocSite // calls outside the module (assumed allocating)
}

// factsRun computes the MayAlloc fact of every function in the
// package. MayAlloc is transitive: a function allocates if its body does or
// if any callee's fact says it may. Unknown callees (outside the loaded
// module, or dynamic) count as allocating — the analyzer is conservative at
// the module boundary.
func factsRun(pass *framework.Pass) {
	infos := collect(pass)
	// Package-local fixpoint over the call graph (handles any declaration
	// order and mutual recursion).
	for changed := true; changed; {
		changed = false
		for _, info := range infos {
			fact := pass.Facts.EnsureFunc(info.fn)
			if fact.MayAlloc {
				continue
			}
			if len(info.sites) > 0 {
				fact.MayAlloc = true
				fact.AllocWhat = info.sites[0].what
				changed = true
				continue
			}
			if len(info.unknown) > 0 {
				fact.MayAlloc = true
				fact.AllocWhat = info.unknown[0].what
				changed = true
				continue
			}
			for _, callee := range info.callees {
				cf := pass.Facts.FuncFact(callee)
				if cf != nil && cf.MayAlloc {
					fact.MayAlloc = true
					fact.AllocWhat = "calls " + framework.FuncKey(callee) + ", which " + cf.AllocWhat
					changed = true
					break
				}
			}
		}
	}
}

func run(pass *framework.Pass) {
	infos := collect(pass)
	byFunc := make(map[*types.Func]*fnInfo, len(infos))
	for _, info := range infos {
		byFunc[info.fn] = info
	}

	// Hot set = annotated roots plus everything they dominate through
	// same-package call edges; root[fn] names the annotated function whose
	// domination put fn in the set, for the diagnostic.
	root := make(map[*types.Func]string)
	var grow func(info *fnInfo, rootName string)
	grow = func(info *fnInfo, rootName string) {
		if _, done := root[info.fn]; done {
			return
		}
		root[info.fn] = rootName
		for _, callee := range info.callees {
			if ci, ok := byFunc[callee]; ok {
				grow(ci, rootName)
			}
		}
	}
	for _, info := range infos {
		if info.hot {
			grow(info, info.fn.Name())
		}
	}

	for _, info := range infos {
		rootName, hot := root[info.fn]
		if !hot {
			continue
		}
		via := ""
		if rootName != info.fn.Name() {
			via = " (dominated by //nicwarp:hotpath root " + rootName + ")"
		}
		for _, site := range info.sites {
			pass.Reportf(site.pos, "%s in hot path %s%s: %s; hot paths must be "+
				"allocation-free (annotate the site //nicwarp:alloc <reason> if "+
				"the allocation is amortized by design)",
				site.what, info.fn.Name(), via, allocConsequence)
		}
		for _, site := range info.unknown {
			pass.Reportf(site.pos, "%s in hot path %s%s: %s",
				site.what, info.fn.Name(), via, allocConsequence)
		}
		// Cross-package edges only: a same-package callee's own sites are
		// reported directly. An edge exists only for a non-exempt call to a
		// callee with a fact (siteCollector.call).
		//nicwarp:ordered diagnostics are position-sorted by RunVet
		for callee, pos := range info.calls {
			if cf := pass.Facts.FuncFact(callee); byFunc[callee] == nil && cf.MayAlloc {
				pass.Reportf(pos, "call to %s in hot path %s%s may allocate: %s; %s",
					framework.FuncKey(callee), info.fn.Name(), via, cf.AllocWhat,
					allocConsequence)
			}
		}
	}
}

const allocConsequence = "per-event garbage turns into GC pauses that show " +
	"up as rollback jitter"

// collect builds the per-function summaries: hot annotation, allocating
// constructs, and statically resolved callees.
func collect(pass *framework.Pass) []*fnInfo {
	// Hot interface methods first: their facts must exist before any
	// function body that calls through them is scanned.
	out := hotInterfaceMethods(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			info := &fnInfo{
				fn:    pass.TypesInfo.Defs[fd.Name].(*types.Func),
				hot:   pass.Annotated(fd.Pos(), "hotpath"),
				calls: make(map[*types.Func]token.Pos),
			}
			sc := &siteCollector{pass: pass, info: info, enclosing: fd}
			sc.cold = coldRanges(fd.Body)
			sc.scan(fd.Body)
			out = append(out, info)
		}
	}
	return out
}

// hotInterfaceMethods summarizes each //nicwarp:hotpath-annotated method of
// an interface declared in the package as a hot root whose callees are the
// package's implementations of it, and registers its fact so
// framework.Callee resolves calls through it.
func hotInterfaceMethods(pass *framework.Pass) []*fnInfo {
	var out []*fnInfo
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			it, ok := ts.Type.(*ast.InterfaceType)
			if !ok {
				return true
			}
			iface := pass.TypesInfo.TypeOf(ts.Name).Underlying().(*types.Interface)
			for _, field := range it.Methods.List {
				if len(field.Names) != 1 || !pass.Annotated(field.Pos(), "hotpath") {
					continue
				}
				// A method of an alias names no type, so it has no fact key,
				// and calls through it stay dynamic.
				m := pass.TypesInfo.Defs[field.Names[0]].(*types.Func)
				if pass.Facts.EnsureFunc(m) == nil {
					continue
				}
				out = append(out, &fnInfo{
					fn:      m,
					hot:     true,
					callees: implementations(pass.Pkg, iface, m.Name()),
					calls:   make(map[*types.Func]token.Pos),
				})
			}
			return false
		})
	}
	return out
}

// implementations returns method name of every concrete named type in pkg
// whose pointer method set satisfies iface.
func implementations(pkg *types.Package, iface *types.Interface, name string) []*types.Func {
	var out []*types.Func
	for _, typeName := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(typeName).(*types.TypeName)
		if !ok || types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		if !types.Implements(ptr, iface) {
			continue
		}
		if obj, _, _ := types.LookupFieldOrMethod(ptr, true, pkg, name); obj != nil {
			if fn, ok := obj.(*types.Func); ok {
				out = append(out, fn)
			}
		}
	}
	return out
}

// posRange is a half-open source range.
type posRange struct{ lo, hi token.Pos }

func (r posRange) contains(p token.Pos) bool { return r.lo <= p && p < r.hi }

// coldRanges finds blocks whose final statement is a call to panic: the
// code leading up to a crash is a cold path exempt from the allocation
// rule (error messages may be formatted there).
func coldRanges(body *ast.BlockStmt) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		blk, ok := n.(*ast.BlockStmt)
		if !ok || len(blk.List) == 0 {
			return true
		}
		if es, ok := blk.List[len(blk.List)-1].(*ast.ExprStmt); ok {
			if call, ok := es.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					out = append(out, posRange{blk.Pos(), blk.End()})
					return false
				}
			}
		}
		return true
	})
	return out
}

// siteCollector walks one function body recording allocation sites and call
// edges.
type siteCollector struct {
	pass      *framework.Pass
	info      *fnInfo
	enclosing *ast.FuncDecl
	cold      []posRange
}

// exempt reports whether the site is escaped: inside a panic-terminated
// block or carrying a //nicwarp:alloc annotation.
func (sc *siteCollector) exempt(pos token.Pos) bool {
	for _, r := range sc.cold {
		if r.contains(pos) {
			return true
		}
	}
	return sc.pass.Annots.At(sc.pass.Fset, pos, "alloc")
}

// add records an allocation site unless exempt.
func (sc *siteCollector) add(pos token.Pos, what string) {
	if !sc.exempt(pos) {
		sc.info.sites = append(sc.info.sites, allocSite{pos, what})
	}
}

func (sc *siteCollector) scan(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			sc.add(n.Pos(), "func literal (closure allocation)")
			return true // its body is still part of this function's code
		case *ast.CompositeLit:
			sc.compositeLit(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					sc.add(n.Pos(), "&composite literal (heap allocation)")
				}
			}
		case *ast.BinaryExpr:
			tv := sc.pass.TypesInfo.Types[n]
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && n.Op == token.ADD &&
				b.Info()&types.IsString != 0 && tv.Value == nil {
				sc.add(n.Pos(), "string concatenation")
			}
		case *ast.RangeStmt:
			if _, ok := sc.pass.TypesInfo.TypeOf(n.X).Underlying().(*types.Map); ok {
				sc.add(n.Pos(), "map iteration (hash-order walk)")
			}
		case *ast.CallExpr:
			sc.call(n)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if len(n.Rhs) == len(n.Lhs) {
					sc.boxing(n.Rhs[i], sc.pass.TypesInfo.TypeOf(lhs), "assignment")
				}
			}
		case *ast.ReturnStmt:
			sc.returns(n)
		case *ast.SendStmt:
			if c, ok := sc.pass.TypesInfo.TypeOf(n.Chan).Underlying().(*types.Chan); ok { // not a type parameter
				sc.boxing(n.Value, c.Elem(), "channel send")
			}
		}
		return true
	})
}

// compositeLit flags reference-typed literals (slice, map): their backing
// store is heap-allocated. Value struct and array literals are stack
// material and pass.
func (sc *siteCollector) compositeLit(lit *ast.CompositeLit) {
	switch sc.pass.TypesInfo.TypeOf(lit).Underlying().(type) {
	case *types.Slice:
		sc.add(lit.Pos(), "slice literal (heap allocation)")
	case *types.Map:
		sc.add(lit.Pos(), "map literal (heap allocation)")
	}
}

// call classifies one call: builtin allocators, conversions that copy,
// static callees (recorded as graph edges), and everything unresolvable
// (assumed allocating).
func (sc *siteCollector) call(call *ast.CallExpr) {
	// Type conversions.
	if tv, ok := sc.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		to := tv.Type
		if isIface(to) {
			sc.boxing(call.Args[0], to, "conversion")
			return
		}
		if len(call.Args) == 1 {
			from := sc.pass.TypesInfo.TypeOf(call.Args[0])
			if allocatingConversion(from, to) {
				sc.add(call.Pos(), "string/[]byte conversion (copies the contents)")
			}
		}
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := sc.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				sc.add(call.Pos(), "make (heap allocation)")
			case "new":
				sc.add(call.Pos(), "new (heap allocation)")
			case "append":
				sc.add(call.Pos(), "append (amortized growth is still growth; pre-size the slice)")
			}
			return
		}
	}
	fn := framework.Callee(sc.pass, call)
	if fn == nil {
		// Dynamic call: function value or interface method.
		if !sc.exempt(call.Pos()) {
			sc.info.unknown = append(sc.info.unknown, allocSite{call.Pos(),
				"dynamic call (function value or interface method; target unknown, assumed to allocate)"})
		}
	} else if fn.Pkg() != nil && fn.Pkg() == sc.pass.Pkg {
		sc.edge(fn, call)
	} else if sc.pass.Facts.FuncFact(fn) != nil {
		// Cross-package callee with facts: judged by MayAlloc in run().
		sc.edge(fn, call)
	} else if !sc.exempt(call.Pos()) {
		sc.info.unknown = append(sc.info.unknown, allocSite{call.Pos(),
			"call to " + fn.FullName() + " outside the analyzed module (assumed to allocate)"})
	}
	// Boxing at the call boundary.
	sc.callBoxing(call)
}

// edge records a call-graph edge (first call site wins for the position).
// Exempt sites — panic-terminated cold blocks, //nicwarp:alloc-annotated
// calls — create no edge: a cold path neither dominates its callee nor
// propagates the callee's MayAlloc to the caller, and an annotated call is
// an acknowledged allocation that cuts the propagation chain.
func (sc *siteCollector) edge(fn *types.Func, call *ast.CallExpr) {
	if sc.exempt(call.Pos()) {
		return
	}
	sc.info.callees = append(sc.info.callees, fn)
	if _, ok := sc.info.calls[fn]; !ok {
		sc.info.calls[fn] = call.Pos()
	}
}

// callBoxing checks each argument against its parameter type.
func (sc *siteCollector) callBoxing(call *ast.CallExpr) {
	sig, ok := sc.pass.TypesInfo.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		sc.boxing(arg, pt, "argument")
	}
}

// returns checks each result expression against the declared result type.
func (sc *siteCollector) returns(ret *ast.ReturnStmt) {
	if sc.enclosing.Type.Results == nil {
		return
	}
	var resultTypes []types.Type
	for _, field := range sc.enclosing.Type.Results.List {
		t := sc.pass.TypesInfo.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return // multi-value call spread; skip
	}
	for i, r := range ret.Results {
		sc.boxing(r, resultTypes[i], "return")
	}
}

// boxing flags storing a concrete value into an interface-typed slot: the
// value is copied to the heap to fit behind the interface header.
func (sc *siteCollector) boxing(expr ast.Expr, to types.Type, context string) {
	if to == nil || !isIface(to) {
		return
	}
	from := sc.pass.TypesInfo.TypeOf(expr)
	if isIface(from) || sc.pass.TypesInfo.Types[expr].IsNil() {
		return
	}
	// Pointer-shaped values (pointers, maps, chans, funcs) fit directly in
	// the interface data word without a heap copy; everything else boxes.
	switch from.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	}
	sc.add(expr.Pos(), "interface boxing ("+context+" converts "+from.String()+" to "+to.String()+")")
}

func isIface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// allocatingConversion reports string<->[]byte/[]rune conversions, which
// copy.
func allocatingConversion(from, to types.Type) bool {
	fs, fok := from.Underlying().(*types.Basic)
	ts, tok := to.Underlying().(*types.Basic)
	fromString := fok && fs.Info()&types.IsString != 0
	toString := tok && ts.Info()&types.IsString != 0
	fromBytes := isByteOrRuneSlice(from)
	toBytes := isByteOrRuneSlice(to)
	return (fromString && toBytes) || (fromBytes && toString)
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
