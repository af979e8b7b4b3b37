// Package mapping implements interval mappings with replication (§2.5)
// and their evaluation (§4): reliability via the routed serial-parallel
// RBD (Eq. 9), expected and worst-case latency (Eqs. 3, 5, 7), and
// expected and worst-case period (Eqs. 6, 8).
//
// Key entry points: Mapping (partition + replica sets), Evaluate
// (validates, then evaluates) and EvaluateUnchecked (the search
// engine's hot loop, no validation), Evaluator (incremental scoring of
// neighbor mappings over a per-instance Links table), AssignSequential,
// and UnroutedFromMapping + StageSystem.FailProb (the exact failure
// probability of the unrouted Fig. 4 diagram, a DP over delivering
// replica subsets). Determinism contract: evaluation is a pure
// closed-form function of (chain, platform, mapping) — identical inputs
// give bit-identical Evals, the property every differential and
// metamorphic test in the tree builds on.
package mapping
