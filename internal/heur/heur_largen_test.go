package heur

import (
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// These tests pin the heuristics' behaviour at the scales the search
// engine seeds from: 500-stage chains, constraint-restricted
// allocations, and infeasible-bounds paths.

func largeInstance(seed uint64, n, p int) (chain.Chain, platform.Platform) {
	r := rng.New(seed)
	return chain.PaperRandom(r, n), platform.PaperHeterogeneous(r, p)
}

func TestCandidateGenerationAt500Stages(t *testing.T) {
	c, pl := largeInstance(1, 500, 60)
	g := NewGen(c, pl, Options{}, nil)
	for _, m := range []int{1, 2, 10, 37, 60} {
		for _, latencyOriented := range []bool{false, true} {
			res, ok := candidate(g, m, latencyOriented)
			if !ok {
				t.Fatalf("m=%d latencyOriented=%v: no candidate", m, latencyOriented)
			}
			if len(res.M.Parts) != m {
				t.Fatalf("m=%d: candidate has %d intervals", m, len(res.M.Parts))
			}
			if err := res.M.Validate(c, pl); err != nil {
				t.Fatalf("m=%d latencyOriented=%v: invalid mapping: %v", m, latencyOriented, err)
			}
			if res.Ev.WorstPeriod <= 0 || res.Ev.WorstLatency <= 0 {
				t.Fatalf("m=%d: degenerate eval %v", m, res.Ev)
			}
		}
	}
}

func TestCandidateRejectsOutOfRangeM(t *testing.T) {
	c, pl := largeInstance(2, 500, 60)
	g := NewGen(c, pl, Options{}, nil)
	for _, m := range []int{0, -1, 501} {
		if _, ok := candidate(g, m, true); ok {
			t.Fatalf("m=%d accepted", m)
		}
	}
	// m beyond the processor count cannot be allocated.
	if _, ok := candidate(g, 61, true); ok {
		t.Fatal("m=61 on 60 processors accepted")
	}
}

func TestBestAt500StagesIsFeasibleUnderLooseBounds(t *testing.T) {
	c, pl := largeInstance(3, 500, 60)
	// Generous bounds: the heuristics must find something.
	res, ok, err := Best(c, pl, Options{Period: 200, Latency: 20000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no solution on a 500-stage chain under loose bounds")
	}
	if res.Ev.WorstPeriod > 200 || res.Ev.WorstLatency > 20000 {
		t.Fatalf("bounds violated: %v", res.Ev)
	}
	if err := res.M.Validate(c, pl); err != nil {
		t.Fatalf("invalid mapping: %v", err)
	}
}

// TestAllowedRestrictsLargeAllocations drives the Alive mask at
// scale: only every third processor survives, and the winning mappings
// must use survivors only.
func TestAllowedRestrictsLargeAllocations(t *testing.T) {
	c, pl := largeInstance(4, 200, 30)
	alive := make([]bool, pl.P())
	for u := range alive {
		alive[u] = u%3 == 0
	}
	res, ok, err := Best(c, pl, Options{Alive: alive}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("no solution with 10 of 30 processors alive")
	}
	for j, procs := range res.M.Procs {
		for _, u := range procs {
			if u%3 != 0 {
				t.Fatalf("interval %d uses dead processor %d", j, u)
			}
		}
	}
	// At most 10 processors are allowed, so at most 10 intervals.
	if len(res.M.Parts) > 10 {
		t.Fatalf("%d intervals with only 10 live processors", len(res.M.Parts))
	}
}

// TestAllowedForbiddingEverythingFindsNothing pins the path where no
// processor survives: every candidate's allocation fails, so the
// heuristics return no result (and no error).
func TestAllowedForbiddingEverythingFindsNothing(t *testing.T) {
	c, pl := largeInstance(5, 100, 20)
	for name, fn := range map[string]func(chain.Chain, platform.Platform, Options, *Tables) (Result, bool, error){
		"HeurP": HeurP, "HeurL": HeurL, "Best": Best,
	} {
		_, ok, err := fn(c, pl, Options{Alive: make([]bool, pl.P())}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok {
			t.Fatalf("%s found a mapping although no processor is alive", name)
		}
	}
}

// TestInfeasibleBoundsLargeN pins the no-result path at scale: a
// period below any single task's compute time admits no mapping.
func TestInfeasibleBoundsLargeN(t *testing.T) {
	c, pl := largeInstance(6, 300, 40)
	for name, fn := range map[string]func(chain.Chain, platform.Platform, Options, *Tables) (Result, bool, error){
		"HeurP": HeurP, "HeurL": HeurL, "Best": Best,
	} {
		_, ok, err := fn(c, pl, Options{Period: 1e-9}, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok {
			t.Fatalf("%s claims a solution under an impossible period bound at n=300", name)
		}
	}
}

// TestCandidatePeriodBoundRestrictsAllocation: with a period bound the
// §7.2 allocation refuses processors too slow for their interval, so
// every replica's compute time fits the bound.
func TestCandidatePeriodBoundRestrictsAllocation(t *testing.T) {
	c, pl := largeInstance(7, 100, 20)
	const bound = 50.0
	g := NewGen(c, pl, Options{Period: bound}, nil)
	for m := 1; m <= 20; m++ {
		res, ok := candidate(g, m, false)
		if !ok {
			continue
		}
		for j, procs := range res.M.Procs {
			w := res.M.Parts.Work(c, j)
			for _, u := range procs {
				if ct := pl.ComputeTime(u, w); ct > bound {
					t.Fatalf("m=%d interval %d: replica %d computes in %g > bound %g", m, j, u, ct, bound)
				}
			}
		}
	}
}
