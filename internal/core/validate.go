package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nicwarp/internal/simnet"
)

// FieldError reports one invalid Config field. It is the typed form of the
// errors Config.Validate returns, so CLIs can point the user at the exact
// flag (errors.As(&fe)) and list the accepted values instead of failing
// with an opaque message — or, worse, silently running nothing.
type FieldError struct {
	// Field is the Config field name ("GVT", "Nodes", "App", …).
	Field string
	// Value is the rejected value as supplied.
	Value interface{}
	// Reason says why the value is invalid, including the accepted values
	// or the conflicting field where that is the whole story.
	Reason string
}

// Error implements error.
func (e *FieldError) Error() string {
	return fmt.Sprintf("config: field %s = %v: %s", e.Field, e.Value, e.Reason)
}

// gvtModeNames maps the CLI spellings to GVT modes. Keep in sync with
// GVTMode.String, which these names round-trip through.
var gvtModeNames = map[string]GVTMode{ //nicwarp:sharded init-only lookup table, never written after package init
	"mattern":  GVTHostMattern,
	"nic":      GVTNIC,
	"nic-gvt":  GVTNIC,
	"tree":     GVTNICTree,
	"nic-tree": GVTNICTree,
}

// GVTModeNames returns the accepted -gvt spellings, sorted.
func GVTModeNames() []string {
	names := make([]string, 0, len(gvtModeNames))
	for n := range gvtModeNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ParseGVTMode resolves a CLI spelling ("mattern", "nic", "tree") to a GVT
// mode. Unknown names return a *FieldError listing the accepted values.
func ParseGVTMode(s string) (GVTMode, error) {
	if m, ok := gvtModeNames[strings.ToLower(strings.TrimSpace(s))]; ok {
		return m, nil
	}
	return 0, &FieldError{
		Field:  "GVT",
		Value:  s,
		Reason: "unknown GVT mode (want " + strings.Join(GVTModeNames(), ", ") + ")",
	}
}

// ParseTopology resolves a CLI topology spelling ("crossbar", "fattree" or
// "fat-tree") to a simnet topology. Unknown names return a *FieldError
// listing the accepted values, the same contract ParseGVTMode has.
func ParseTopology(s string) (simnet.Topology, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "crossbar", "":
		return simnet.TopoCrossbar, nil
	case "fattree", "fat-tree":
		return simnet.TopoFatTree, nil
	}
	return simnet.TopoCrossbar, &FieldError{
		Field:  "Net.Topology",
		Value:  s,
		Reason: "unknown topology (want " + strings.Join(simnet.TopologyNames(), ", ") + ")",
	}
}

// ParseShards resolves a CLI shard-count spelling to an Exec shard count.
// Malformed or non-positive values return a *FieldError, the same contract
// ParseGVTMode has; clamping a legal count to the cluster size stays the
// silent job of Exec, because the cluster size is not known at flag time.
func ParseShards(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n < 1 {
		return 0, &FieldError{
			Field:  "Shards",
			Value:  s,
			Reason: "want a positive integer shard count",
		}
	}
	return n, nil
}
