// Package poolown_xpkg exercises cross-package ownership facts: the
// //nicwarp:owns annotations live in poolown_dep, and poolown must honour
// them here via the exported fact layer — both the transfer (flagged use
// after a cross-package Consume) and the sanctioned owning field (no flag
// for stores into Sink.Held).
package poolown_xpkg

import (
	"nicwarp/internal/timewarp"

	"poolown_dep"
)

// The callee's owns fact crosses the package boundary.
func useAfterForeignConsume(s *poolown_dep.Sink, e *timewarp.Event) uint64 {
	poolown_dep.Consume(s, e)
	return e.Payload // want `use of e.Payload after release: ownership transferred to Consume`
}

// The field's owns fact crosses the package boundary: no diagnostic.
func storeInForeignOwner(s *poolown_dep.Sink, e *timewarp.Event) {
	s.Held = append(s.Held, e)
}

// Another package's variable is as package-level as one's own.
func retainInForeignGlobal(e *timewarp.Event) {
	poolown_dep.Last = e // want `pooled \*nicwarp/internal/timewarp.Event stored in package-level poolown_dep.Last`
}
