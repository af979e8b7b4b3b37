// Package core is the library facade: it ties the chain/platform models,
// the evaluation of §4, the polynomial algorithms of §5, the exact solver
// and ILP, and the §7 heuristics into a single Optimize entry point. The
// module root package relpipe re-exports this API for downstream users.
//
// Key entry points: Optimize (method Auto routes to the strongest
// applicable solver; MaxExactTasks is the enumeration ceiling),
// MinPeriodMethod, MinimizeCost, FrontierHeuristic, Evaluate, and the
// Options execution budget (parallelism, cancellation, search knobs,
// progress hook, shared heuristic tables). Determinism contract: an
// answer depends only on (instance, bounds, method, search knobs) —
// never on Options.Parallelism, Context, Progress or Tables — and
// Instance.Canonical, a length-prefixed
// Float64bits SHA-256 of the chain and platform, is the stable digest
// the service keys its cache on.
package core
