package search

import (
	"fmt"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

func TestAdoptTruthTable(t *testing.T) {
	m := mapping.Mapping{Parts: interval.Single(3), Procs: [][]int{{0}}}
	cases := []struct {
		m            mapping.Mapping
		ok, curWhole bool
		want         bool
		why          string
	}{
		{m, true, true, true, "meets the bounds"},
		{m, true, false, true, "meets the bounds, running mapping down"},
		{m, false, true, false, "late result, degraded mapping still whole"},
		{m, false, false, true, "late result beats a down pipeline"},
		{mapping.Mapping{}, true, true, false, "no mapping on survivors"},
		{mapping.Mapping{}, true, false, false, "no mapping on survivors, down"},
		{mapping.Mapping{}, false, true, false, "empty and late"},
		{mapping.Mapping{}, false, false, false, "empty and late, down"},
	}
	for _, tc := range cases {
		if got := Adopt(tc.m, tc.ok, tc.curWhole); got != tc.want {
			t.Errorf("%s: Adopt(len %d, ok=%v, curWhole=%v) = %v, want %v",
				tc.why, len(tc.m.Procs), tc.ok, tc.curWhole, got, tc.want)
		}
	}
}

// inlineRepair is the warm-started survivor search exactly as adapt and
// the fleet submitters wrote it before search.Repair: strip dead
// replicas by hand, warm-start only from a whole result, and forbid
// dead processors through the survivor mask.
func inlineRepair(c chain.Chain, pl platform.Platform, cur mapping.Mapping, alive []bool, opts Options) (Result, bool, error) {
	masked := cur.Clone()
	whole := true
	for j, ps := range masked.Procs {
		keep := ps[:0]
		for _, u := range ps {
			if alive[u] {
				keep = append(keep, u)
			}
		}
		masked.Procs[j] = keep
		whole = whole && len(keep) > 0
	}
	if whole {
		opts.warm = &masked
	}
	opts.alive = alive
	return Optimize(c, pl, opts)
}

// TestRepairMatchesInlineOptimize pins search.Repair bit-identical to
// the inline Optimize call it replaced, on seeded instances, for a
// mask that leaves every interval a survivor (warm start) and one that
// empties an interval (cold start).
func TestRepairMatchesInlineOptimize(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		r := rng.New(seed)
		c := chain.PaperRandom(r, 10+2*int(seed))
		var pl platform.Platform
		if seed%2 == 0 {
			pl = platform.PaperHomogeneous(12)
		} else {
			pl = platform.PaperHeterogeneous(r, 12)
		}
		start, _, err := Optimize(c, pl, Options{Restarts: 2, Budget: 400, Seed: seed, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		m0 := start.M
		period := 1.5 * start.Ev.WorstPeriod

		// Whole: kill one replica of the most replicated interval (or an
		// idle processor when no interval is replicated). Cold: kill
		// every replica of interval 0.
		wholeAlive := allAlive(pl.P())
		widest := 0
		for j, ps := range m0.Procs {
			if len(ps) > len(m0.Procs[widest]) {
				widest = j
			}
		}
		if len(m0.Procs[widest]) > 1 {
			wholeAlive[m0.Procs[widest][0]] = false
		} else {
			wholeAlive[idleProc(t, pl, m0)] = false
		}
		coldAlive := allAlive(pl.P())
		for _, u := range m0.Procs[0] {
			coldAlive[u] = false
		}

		for _, mask := range []struct {
			name  string
			alive []bool
			whole bool
		}{{"whole", wholeAlive, true}, {"cold", coldAlive, false}} {
			if _, whole, _ := m0.Mask(mask.alive); whole != mask.whole {
				t.Fatalf("seed %d %s: scenario broken, whole = %v", seed, mask.name, whole)
			}
			for _, par := range []int{1, 8} {
				name := fmt.Sprintf("seed=%d/%s/P=%d", seed, mask.name, par)
				opts := Options{Period: period, Restarts: 2, Budget: 400, Seed: seed, Parallelism: par}
				got, okG, errG := Repair(c, pl, m0, mask.alive, opts)
				want, okW, errW := inlineRepair(c, pl, m0, mask.alive, opts)
				if errG != nil || errW != nil || okG != okW {
					t.Fatalf("%s: Repair ok=%v err=%v, inline ok=%v err=%v", name, okG, errG, okW, errW)
				}
				if got.M.String() != want.M.String() {
					t.Errorf("%s: mappings differ:\nRepair %s\ninline %s", name, got.M, want.M)
				}
				if deltaEvalBits(got.Ev) != deltaEvalBits(want.Ev) {
					t.Errorf("%s: evaluations differ:\nRepair %+v\ninline %+v", name, got.Ev, want.Ev)
				}
				if got.Stats != want.Stats {
					t.Errorf("%s: stats differ:\nRepair %+v\ninline %+v", name, got.Stats, want.Stats)
				}
				for _, ps := range got.M.Procs {
					for _, u := range ps {
						if !mask.alive[u] {
							t.Errorf("%s: repaired mapping uses dead processor %d", name, u)
						}
					}
				}
			}
		}
	}
}

func allAlive(p int) []bool {
	alive := make([]bool, p)
	for u := range alive {
		alive[u] = true
	}
	return alive
}

func idleProc(t *testing.T, pl platform.Platform, m mapping.Mapping) int {
	t.Helper()
	used := make([]bool, pl.P())
	for _, ps := range m.Procs {
		for _, u := range ps {
			used[u] = true
		}
	}
	for u, in := range used {
		if !in {
			return u
		}
	}
	t.Fatal("no idle processor")
	return -1
}
