// Package cost implements the resource-cost extension the paper lists as
// future work (§9: "mix performance-oriented criteria with several other
// objectives, such as reliability, resource costs, and power
// consumption"): minimize the total cost of the enrolled processors
// subject to a reliability floor and period/latency bounds, on platforms
// with homogeneous speed/failure characteristics but arbitrary
// per-processor prices.
//
// The structure of the optimum mirrors the paper's results: the
// partition fixes period and latency; for a fixed partition the stage
// log-reliabilities are separable concave functions of the replica
// counts, so the greedy that always grants the next replica to the stage
// with the largest marginal gain reaches any reliability target with the
// minimum number of processors (the same exchange argument as
// Theorem 4); and with identical processors the cheapest q of them are
// the optimal q to enroll.
//
// The partition enumeration and that greedy are internal/exact's
// Sweep and Greedy.Step, on the solve's per-interval term table; this
// package folds the gains into the running log-reliability and keeps
// the cheapest partition. The per-partition loop it replaced is the
// test oracle exactref.MinCost.
package cost
