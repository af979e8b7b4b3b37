// Package heur implements the paper's §7 heuristics for the general
// (NP-complete) problem: maximize reliability on a possibly heterogeneous
// platform under period and latency bounds.
//
// Each heuristic tries every interval count m ∈ [1, min(n,p)]; for each m
// it builds one candidate partition (Heur-L cuts at the cheapest
// communications, Heur-P balances interval loads), allocates processors
// with the §7.2 variant of Algo-Alloc, and keeps the most reliable
// mapping that meets the bounds.
//
// Every candidate comes out of one path: Tables owns an instance's
// partition tables, each built at most once, and its seed memo, and Gen
// views one Tables under one set of bounds.
package heur
