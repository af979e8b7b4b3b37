// Package frontier enumerates Pareto-optimal trade-offs between the
// three antagonistic criteria — reliability, period, latency — of the
// tri-criteria mapping problem on homogeneous platforms. The paper
// explores this space one bound pair at a time (Figures 6–11); the
// frontier view exposes the whole surface of one instance at once:
// every (period, latency, failure) triple such that no mapping improves
// one criterion without degrading another.
//
// Key entry points: Compute (the sweep, sharded over internal/par and
// bit-identical at every parallelism degree, with optional progress);
// Front, the repository's one Pareto dominance filter; Distinct, its
// form for the search engine's candidates; the PeriodReliability /
// LatencyReliability / PeriodLatency projections; and WriteCSV.
package frontier
