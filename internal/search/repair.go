package search

import (
	"relpipe/internal/chain"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
)

// Repair re-optimizes a running mapping after permanent crashes: an
// Optimize run restricted to the surviving processors (alive[u] ==
// false forbids u), warm-started from cur with its dead replicas
// stripped when that still covers every interval. When the crashes
// emptied an interval the cold seeds carry the search. It overrides
// opts.Allowed and opts.Warm; every other option passes through. This
// is the one repair search of the online-adaptation engine
// (internal/adapt) and the fleet controller (internal/fleet).
func Repair(c chain.Chain, pl platform.Platform, cur mapping.Mapping, alive []bool, opts Options) (Result, bool, error) {
	opts.Allowed = func(_, u int) bool { return alive[u] }
	opts.Warm = nil
	if masked, whole, _ := cur.Mask(alive); whole {
		opts.Warm = []mapping.Mapping{masked}
	}
	return Optimize(c, pl, opts)
}

// Adopt is the adoption rule for a Repair result m (ok as Repair
// returned it) replacing a running mapping: take any mapping that
// meets the bounds, and a late one only when the running mapping has
// lost a whole interval (curWhole false) — a late pipeline beats a
// down one. An empty m (no mapping on the survivors) is never adopted.
func Adopt(m mapping.Mapping, ok, curWhole bool) bool {
	return len(m.Procs) > 0 && (ok || !curWhole)
}
