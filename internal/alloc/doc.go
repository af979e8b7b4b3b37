// Package alloc implements the processor-allocation step of the mapping
// problem: given a fixed partition of the chain into intervals, choose
// which processors replicate each interval.
//
// GreedyHet is the §7.2 allocation heuristic the heuristics use on
// heterogeneous platforms: it honours a period bound and an optional
// mask of the processors still alive. The paper's Algo-Alloc
// (§5.5, optimal on homogeneous platforms by Theorem 4) runs inside the
// exact solver's term table (internal/exact); its stand-alone form,
// exactref.Greedy, is the test oracle beside the brute-force allocator.
package alloc
