package nicwarp

import (
	"nicwarp/internal/core"
	"nicwarp/internal/fault"
)

// This file is the functional-options surface of Run. Config stays what it
// always was — the model parameters that define an experiment's identity
// and feed its digest — while everything about *how* the run executes
// (the shard count) arrives as a RunOption.
// New execution knobs must land here, not as positional Config struct
// fields: an option composes, documents itself at the call site, and cannot
// silently change the digest of every cached result.

// Exec is the execution strategy applied to a run: knobs that change how
// the simulation executes but, by the sharded-identity guarantee, never
// what it computes. It is excluded from Config.Digest by construction.
type Exec = core.Exec

// FaultPlan is a validated fault-injection plan (see Config.Fault).
type FaultPlan = fault.Plan

// FaultScenario resolves a named fault scenario ("drop", "dup", "chaos",
// …; cmd/stress -list prints them) and a fault seed to a validated plan.
func FaultScenario(name string, seed uint64) (FaultPlan, error) {
	return fault.PlanFor(name, seed)
}

// RunOption customizes one Run call. The zero set of options reproduces
// the historical Run(cfg) behavior exactly: serial execution.
type RunOption func(*runOptions)

type runOptions struct {
	exec core.Exec
}

func applyOptions(opts []RunOption) runOptions {
	var o runOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	return o
}

// WithShards partitions the run's nodes across n event-scheduler shards
// connected by a bounded-lookahead window protocol. Committed results are
// byte-identical to the serial run at any shard count — sharding is pure
// execution strategy — so the config digest, and with it the result cache
// key, does not see n. Counts below 1 or above the node count are clamped;
// configurations without a positive lookahead fall back to serial
// execution. Run-time sampling and the invariant checker read at the
// window barrier, so they shard like any other run.
func WithShards(n int) RunOption {
	return func(o *runOptions) { o.exec.Shards = n }
}
