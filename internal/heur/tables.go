package heur

import (
	"sync"
	"sync/atomic"

	"relpipe/internal/chain"
	"relpipe/internal/dp"
	"relpipe/internal/platform"
)

// Tables is the one owner of an instance's §7 candidate state: the two
// partition tables (Heur-P's Algorithm 4 table and Heur-L's
// communication ordering) and the memo of the seeds generators build
// over them (see Gen.Lookup). Each table is built at most once, on the
// first candidate of its orientation, so a lone Heur-L run never builds
// the Heur-P table. The tables depend only on the chain and the
// platform — never on period/latency bounds or the Alive mask — and the
// builds and the memo are internally synchronized, so one Tables value
// can serve every solve against the same instance concurrently. This is
// the unit the service's table tier keeps per instance across requests.
type Tables struct {
	c                chain.Chain
	speed, bandwidth float64 // Heur-P's representative speed and the platform's bandwidth
	maxM             int     // largest interval count the Heur-P table supports

	pOnce  sync.Once
	pTable *dp.HeurPTable // nil when the build failed: every Heur-P count is out
	lOnce  sync.Once
	lTable *dp.HeurLTable

	memo  seedMemo
	bytes atomic.Int64 // heap footprint of the built tables and the memo
}

// NewTables returns the instance's tables, for interval counts
// 1..min(len(c), P), with nothing built yet.
func NewTables(c chain.Chain, pl platform.Platform) *Tables {
	return &Tables{c: c, speed: meanSpeed(pl), bandwidth: pl.Bandwidth, maxM: maxIntervals(c, pl)}
}

// BuildTables returns the instance's tables with both partition tables
// built. A failed Heur-P build is recorded rather than returned: it
// rules out Heur-P candidates while Heur-L still runs.
func BuildTables(c chain.Chain, pl platform.Platform) *Tables {
	t := NewTables(c, pl)
	t.heurP()
	t.heurL()
	return t
}

// Bytes returns the heap footprint of the built tables and the seed
// memo, the quantity the service's table tier budgets. It grows as the
// tables are built and the memo fills.
func (t *Tables) Bytes() int64 { return t.bytes.Load() }

// heurP returns the Heur-P table, building it on first use; nil when
// the build failed.
func (t *Tables) heurP() *dp.HeurPTable {
	t.pOnce.Do(func() {
		if pt, err := dp.NewHeurPTable(t.c, t.maxM, t.speed, t.bandwidth); err == nil {
			t.pTable = pt
			t.bytes.Add(pt.Bytes())
		}
	})
	return t.pTable
}

// heurL returns the Heur-L ordering, building it on first use.
func (t *Tables) heurL() *dp.HeurLTable {
	t.lOnce.Do(func() {
		t.lTable = dp.NewHeurLTable(t.c)
		t.bytes.Add(t.lTable.Bytes())
	})
	return t.lTable
}

// serves reports whether t can serve generators over c on pl: tables
// are built for one chain length and hold Heur-P partitions up to their
// maxM, bit-identical for any m ≤ maxM, so a larger range is fine. The
// caller remains responsible for only sharing tables across solves of
// the same canonical instance.
func (t *Tables) serves(c chain.Chain, pl platform.Platform) bool {
	return t != nil && len(t.c) == len(c) && t.maxM >= maxIntervals(c, pl)
}

// maxIntervals is the largest interval count of the instance,
// min(len(c), P).
func maxIntervals(c chain.Chain, pl platform.Platform) int {
	return min(len(c), pl.P())
}

// meanSpeed returns the average processor speed, the representative speed
// Heur-P's partition DP uses to trade compute time against communication
// time on heterogeneous platforms (on homogeneous ones it is the exact
// speed).
func meanSpeed(pl platform.Platform) float64 {
	s := 0.0
	for _, p := range pl.Procs {
		s += p.Speed
	}
	return s / float64(pl.P())
}
