// Package multichain maps *several* independent pipelined applications
// onto one shared homogeneous platform — the situation of the paper's
// §1 Autosar motivation, where many vehicle functions (each a pipelined
// real-time chain with its own period, latency and reliability needs)
// share the same set of ECUs. The paper maps one chain; this extension
// partitions the processor set among chains optimally.
//
// The decomposition exploits the paper's structure results twice. For a
// single chain on k identical processors, the best achievable
// log-reliability R_c(k) under the chain's bounds is computed from the
// partition enumeration: for each feasible partition, Algo-Alloc's
// greedy gain sequence yields the optimal value at *every* processor
// budget k simultaneously (the greedy prefix property behind Theorem 4).
// Chains then compete for processors through a knapsack-style dynamic
// program over Σ_c R_c(k_c), which is exact because the per-chain curves
// are themselves exact.
//
// The enumeration and the greedy steps are internal/exact's Sweep and
// Greedy.Step; the per-partition loop they replaced is the test oracle
// exactref.Curve.
package multichain
