package heur

// Tests of the seed memo (memo.go): every seed served from the memo of
// shared tables must equal a fresh §7.2 allocation and evaluation under
// the request's own bound, float by float to the bit and replica set by
// replica set, and the memo must be skipped where it keys nothing.

import (
	"math"
	"reflect"
	"testing"

	"relpipe/internal/alloc"
	"relpipe/internal/chain"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// freshSeed is the oracle of one memo hit: the candidate's partition,
// GreedyHet under bound and a full Evaluate, with nothing shared.
func freshSeed(c chain.Chain, pl platform.Platform, m int, latencyOriented bool, bound float64) (mapping.Mapping, mapping.Eval, bool) {
	parts, ok := NewGen(c, pl, Options{}, nil).Partition(m, latencyOriented)
	if !ok {
		return mapping.Mapping{}, mapping.Eval{}, false
	}
	mp, _, err := alloc.GreedyHet(c, pl, parts, bound, nil)
	if err != nil {
		return mapping.Mapping{}, mapping.Eval{}, false
	}
	ev, err := mapping.Evaluate(c, pl, mp)
	return mp, ev, err == nil
}

func TestSeedMemoHitsMatchFreshBuild(t *testing.T) {
	r := rng.New(26)
	for inst := 0; inst < 6; inst++ {
		c := chain.PaperRandom(r, 6+r.IntN(20))
		pl := platform.PaperHeterogeneous(r, 3+r.IntN(12))
		if inst%2 == 1 {
			pl = homPl(3 + r.IntN(8))
		}
		tables := BuildTables(c, pl)
		mm := maxIntervals(c, pl)
		prices := make([]float64, pl.P())
		for u := range prices {
			prices[u] = r.Uniform(0.1, 3)
		}
		// Bounds from below the fastest interval to above the whole
		// chain on the slowest processor, each twice (the second is a
		// hit for sure), plus the unbounded allocation.
		whole := c.Work(0, len(c)-1)
		var bounds []float64
		for i := 0; i < 40; i++ {
			b := r.Uniform(0.02, 1.2) * whole / 5
			bounds = append(bounds, b, b, math.Nextafter(b, math.Inf(1)))
		}
		bounds = append(bounds, 0, -1, math.NaN())
		hits := 0
		for _, bound := range bounds {
			g := NewGen(c, pl, Options{Period: bound}, tables)
			for m := 1; m <= mm; m++ {
				for _, lo := range []bool{false, true} {
					s, ok, found := g.Lookup(m, lo)
					if !found {
						s, ok = g.Build(m, lo)
					} else {
						hits++
					}
					wantM, wantEv, wantOK := freshSeed(c, pl, m, lo, bound)
					if ok != wantOK {
						t.Fatalf("inst %d m=%d lo=%v bound=%v: ok %v (hit %v), fresh %v", inst, m, lo, bound, ok, found, wantOK)
					}
					if !ok {
						continue
					}
					for _, f := range [][2]float64{
						{s.WorstPeriod, wantEv.WorstPeriod},
						{s.WorstLatency, wantEv.WorstLatency},
						{s.LogRel, wantEv.LogRel},
					} {
						if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
							t.Fatalf("inst %d m=%d lo=%v bound=%v (hit %v): seed float %v, fresh %v", inst, m, lo, bound, found, f[0], f[1])
						}
					}
					if got := s.Procs(); !reflect.DeepEqual(got, wantM.Procs) {
						t.Fatalf("inst %d m=%d lo=%v bound=%v (hit %v): replicas %v, fresh %v", inst, m, lo, bound, found, got, wantM.Procs)
					}
					wantCost := 0.0
					for _, ps := range wantM.Procs {
						for _, u := range ps {
							wantCost += prices[u]
						}
					}
					if got := s.Cost(prices); math.Float64bits(got) != math.Float64bits(wantCost) {
						t.Fatalf("inst %d m=%d lo=%v bound=%v (hit %v): cost %v, fresh %v", inst, m, lo, bound, found, got, wantCost)
					}
				}
			}
		}
		if hits < len(bounds) {
			t.Fatalf("inst %d: %d memo hits over %d bounds", inst, hits, len(bounds))
		}
	}
}

// TestSeedMemoSkipped: under an Alive mask Lookup never finds anything
// and Build leaves the memo empty; a generator without shared tables
// memoizes into private tables of its own, never into another's.
func TestSeedMemoSkipped(t *testing.T) {
	c := chain.PaperRandom(rng.New(4), 10)
	pl := homPl(5)
	tables := BuildTables(c, pl)
	size := tables.Bytes()
	masked := NewGen(c, pl, Options{Period: 50, Alive: []bool{false, true, true, true, true}}, tables)
	for i := 0; i < 2; i++ {
		masked.Build(3, false)
		if _, _, found := masked.Lookup(3, false); found {
			t.Fatal("memo consulted under an Alive mask")
		}
	}
	private := NewGen(c, pl, Options{Period: 50}, nil)
	private.Build(3, false)
	if _, _, found := private.Lookup(3, false); !found || private.t == tables {
		t.Fatalf("private generator did not memoize into its own tables (found %v)", found)
	}
	if tables.Bytes() != size {
		t.Fatalf("skipped memo grew the tables from %d to %d bytes", size, tables.Bytes())
	}
	g := NewGen(c, pl, Options{Period: 50}, tables)
	g.Build(3, false)
	if _, _, found := g.Lookup(3, false); !found || tables.Bytes() <= size {
		t.Fatalf("memo did not keep the built seed (found %v, %d bytes)", found, tables.Bytes())
	}
}
