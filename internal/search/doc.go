// Package search is the large-n solve path: a scalable heuristic
// optimizer for instances far beyond the exact solvers' 2^{n-1}
// enumeration ceiling (~22 tasks). It seeds from the paper's §7
// heuristics (Heur-L / Heur-P candidates over a sampled range of
// interval counts), refines each seed with simulated-annealing-style
// local search over interval boundaries and processor/replica
// allocation, and runs a random-restart portfolio across internal/par
// shards with a deterministic best-of reduce — so the result is
// bit-identical at any parallelism degree for a fixed seed.
//
// Three objectives share the engine:
//
//   - Optimize: maximize reliability under period/latency bounds
//     (the §6 general problem, NP-complete — Theorem 5);
//   - MinimizePeriod: minimize the worst-case period under a
//     reliability floor and optional latency bound (§5.2 converse,
//     heterogeneous or large-n variant);
//   - MinimizeCost: minimize the total price of the enrolled
//     processors under a reliability floor and bounds (the §9
//     resource-cost extension, beyond internal/cost's enumeration).
//
// Repair is Optimize after permanent crashes, the one repair search of
// internal/adapt and internal/fleet: a processor survivor mask keeps
// every allocation and move on live processors, and the running
// mapping with its dead replicas stripped leads the seed pool. Both are
// unexported options that only Repair sets; the public Options carry
// no per-processor or per-interval constraint.
//
// Determinism contract: the result depends only on (instance, Options
// minus Parallelism/Context/Progress/Tables). The work is bounded by
// iteration counts, never by wall clock, so a run gives the same answer
// on every machine and at every degree.
package search
