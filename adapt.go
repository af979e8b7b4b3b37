package relpipe

import (
	"relpipe/internal/adapt"
)

// This file re-exports the online-adaptation engine (internal/adapt):
// lifetime simulation of a mapping over a mission during which
// processors crash permanently, with a pluggable repair policy.

type (
	// AdaptOptions configures a lifetime run: mission horizon, repair
	// policy, crash-rate scaling, spares pool, repair search budget.
	AdaptOptions = adapt.Options
	// AdaptPolicy selects the repair strategy.
	AdaptPolicy = adapt.Policy
	// AdaptRun is one lifetime run: seed, event trace and metrics.
	AdaptRun = adapt.RunResult
	// AdaptEvent is one trace entry: a crash and its handling.
	AdaptEvent = adapt.Event
	// AdaptMetrics aggregates one lifetime run.
	AdaptMetrics = adapt.Metrics
	// AdaptBatchResult is the replication set of one AdaptBatch call.
	AdaptBatchResult = adapt.BatchResult
	// AdaptSummary is the aggregate view of an adapt batch.
	AdaptSummary = adapt.Summary
)

// Repair policies.
const (
	// AdaptNone never repairs: the mapping degrades replica by replica.
	AdaptNone = adapt.PolicyNone
	// AdaptGreedy patches the harmed interval with the best idle
	// surviving processor (no global re-optimization).
	AdaptGreedy = adapt.PolicyGreedy
	// AdaptSpares swaps crashed processors for pre-provisioned spares
	// of identical speed and failure rate, while the pool lasts.
	AdaptSpares = adapt.PolicySpares
	// AdaptRemap re-optimizes over the surviving processors with the
	// search engine, warm-started from the degraded mapping.
	AdaptRemap = adapt.PolicyRemap
)

// ParseAdaptPolicy converts a CLI name ("none", "greedy", "spares",
// "remap") into an AdaptPolicy.
func ParseAdaptPolicy(s string) (AdaptPolicy, error) { return adapt.ParsePolicy(s) }

// AdaptPolicies lists every repair policy in comparison-table order
// (strongest repair first).
func AdaptPolicies() []AdaptPolicy { return adapt.Policies() }

// Adapt runs one lifetime simulation of mapping m on the instance: it
// draws each processor's permanent-failure time from its exponential
// law, runs the mapping until a replica's host dies, invokes the
// configured repair policy, and returns the event trace plus mission
// metrics (mission reliability, availability, time to first violation,
// repair counts and cost). Deterministic for a fixed ao.Seed.
func Adapt(in Instance, m Mapping, ao AdaptOptions) (AdaptRun, error) {
	if err := in.Validate(); err != nil {
		return AdaptRun{}, err
	}
	return adapt.Run(in.Chain, in.Platform, m, ao)
}

// AdaptBatch runs replications independent lifetime simulations — each
// seeded deterministically from ao.Seed — across o.Parallelism workers
// and returns the per-replication results in order. The batch is
// bit-identical for every parallelism degree (the sim.RunBatch
// contract). Summarize the result for the aggregate view.
func AdaptBatch(in Instance, m Mapping, ao AdaptOptions, replications int, o Options) (AdaptBatchResult, error) {
	if err := in.Validate(); err != nil {
		return AdaptBatchResult{}, err
	}
	return adapt.RunBatch(o.Context, in.Chain, in.Platform, m, ao, replications, o.Parallelism, o.Progress)
}
