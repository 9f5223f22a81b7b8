// Package shardsafe polices package-level mutable state. The paper's
// deployment model runs many NIC-resident simulation shards in one
// process, and the repo's own stress harness runs kernels side by side on
// different seeds: any state reachable outside a Kernel/Cluster instance
// is shared between shards by accident, which breaks both determinism
// (one shard's run now depends on its neighbours) and the replayability
// the fault harness depends on. The rule makes instance state the default
// and package state a reviewed exception.
//
// Two checks:
//
//   - A package-level var whose type is mutable through the variable — a
//     map, slice, channel, pointer, or a struct/array containing one — is
//     flagged at its declaration. Lookup tables and intentionally shared
//     registries carry `//nicwarp:sharded <reason>` on the declaration,
//     which states the reviewed claim: the value is never written after
//     init, or its sharing is part of the design.
//
//   - Any assignment to a package-level variable from a function other
//     than init is flagged at the write site, regardless of type — a
//     rebindable global is shared mutable state even if it holds an int.
//     `//nicwarp:sharded` on the write (or on the declaration) sanctions
//     it.
//
// Immutable-shaped vars (plain ints, strings, bools, errors and other
// interface values, func values) are left alone at declaration: they are
// either genuinely constant-like or caught by the write-site rule the
// moment anything mutates them.
//
// Tooling and driver packages (cmd/, examples/, the analysis suite itself)
// are allowlisted — flag variables and CLI registries are package-level by
// Go convention and run pre-shard.
package shardsafe

import (
	"go/ast"
	"go/token"
	"go/types"

	"nicwarp/internal/analysis/framework"
)

// allowList exempts driver/tooling packages (pkg or pkg/... patterns) where
// package-level state is conventional and runs outside any shard.
const allowList = "nicwarp,nicwarp/cmd/...,nicwarp/examples/...,nicwarp/internal/analysis/..."

// Analyzer implements the shardsafe check.
var Analyzer = &framework.Analyzer{
	Name: "shardsafe",
	Doc: "flag package-level mutable state and non-init writes to package " +
		"variables: shards must not share state; //nicwarp:sharded marks " +
		"reviewed exceptions",
	Run: run,
}

func run(pass *framework.Pass) {
	if framework.MatchPackage(allowList, pass.Pkg.Path()) {
		return
	}
	// Declarations of mutable-typed package vars.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					what := mutableThrough(pass.TypesInfo.Defs[name].Type())
					if what == "" || pass.Annotated(name.Pos(), "sharded") ||
						pass.Annotated(gd.Pos(), "sharded") {
						continue
					}
					pass.Reportf(name.Pos(),
						"package-level var %s is mutable through its type (%s): state "+
							"shared by every shard in the process; move it into the "+
							"kernel/cluster instance, or annotate //nicwarp:sharded "+
							"<reason> if it is an init-only table or deliberately shared",
						name.Name, what)
				}
			}
		}
	}
	// Writes to package vars outside init.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil && fd.Name.Name == "init" {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var targets []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					targets = n.Lhs
				case *ast.IncDecStmt:
					targets = []ast.Expr{n.X}
				}
				for _, lhs := range targets {
					if _, v := framework.StoreTarget(pass.TypesInfo, lhs); v != nil &&
						!pass.Annotated(n.Pos(), "sharded") && !pass.Annotated(v.Pos(), "sharded") {
						pass.Reportf(n.Pos(),
							"write to package-level var %s from %s: shards must not "+
								"mutate shared package state; make it instance state or "+
								"annotate //nicwarp:sharded <reason>",
							v.Name(), fd.Name.Name)
					}
				}
				return true
			})
		}
	}
}

// mutableThrough reports how a type can be mutated through a variable of
// it: directly (map/slice/chan/pointer) or via a struct or array that
// embeds such a component. Interfaces, funcs and basic types return "". A
// type can only contain itself through a reference kind, so the recursion
// ends.
func mutableThrough(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Map:
		return "map"
	case *types.Slice:
		return "slice"
	case *types.Chan:
		return "channel"
	case *types.Pointer:
		return "pointer"
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if w := mutableThrough(u.Field(i).Type()); w != "" {
				return "struct holding a " + w
			}
		}
	case *types.Array:
		if w := mutableThrough(u.Elem()); w != "" {
			return "array of " + w
		}
	}
	return ""
}
