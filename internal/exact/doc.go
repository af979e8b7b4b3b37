// Package exact solves the tri-criteria mapping problem *optimally* on
// homogeneous platforms: maximize reliability subject to bounds on period
// and latency.
//
// The (reliability | latency) problem is NP-complete (Theorem 3), so no
// polynomial algorithm exists unless P=NP; at the paper's experimental
// scale (n = 15 tasks → 2^14 = 16384 partitions) exhaustive enumeration
// of partitions is cheap, and for each partition Algo-Alloc yields the
// reliability-optimal allocation (Theorem 4). On homogeneous platforms
// the period and latency of a mapping depend only on its partition, so
// enumeration + optimal allocation is a *global* optimum. This solver
// plays the role of the paper's CPLEX ILP (§5.4) in the experiments, and
// cross-checks our own branch-and-bound ILP in tests.
//
// The enumeration is table-driven. Every criterion is a sum or a max of
// per-interval terms that depend only on (first task, last task, replica
// count), so each solve fills one table of them: worst cost, output
// time, and per replica count the stage log-reliability and Algo-Alloc's
// gain for one more replica. The greedy and the fold over a partition's
// intervals then read only the table. The entries come from the same
// mapping and failure functions, in the same order, as a per-partition
// Algo-Alloc plus mapping.Evaluate, so every Profile float is
// bit-identical to that path's, which survives as the test oracle
// internal/exact/exactref.
//
// Sweep is the enumeration every homogeneous enumerative solver runs
// on: OptimalPar here, the min-cost solver of internal/cost and the
// shared-platform curves of internal/multichain. Each takes Greedy
// steps and folds them itself. The Pareto filter over profiles is
// frontier.Front; the all-pairs loop it replaced is exactref.Pareto.
package exact
