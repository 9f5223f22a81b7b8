// Package poolown_dep is the dependency half of the cross-package facts
// fixture: its ownership annotations are exported as facts and must be
// honoured when poolown analyzes an importing package.
package poolown_dep

import "nicwarp/internal/timewarp"

// Sink owns events handed to Consume.
type Sink struct {
	Held []*timewarp.Event //nicwarp:owns declared owner, visible to importers via field facts
}

// Consume takes ownership of the event.
//
//nicwarp:owns transfers ownership across the package boundary
func Consume(s *Sink, e *timewarp.Event) {
	s.Held = append(s.Held, e)
}

// Last is package state an importer could write.
var Last *timewarp.Event
