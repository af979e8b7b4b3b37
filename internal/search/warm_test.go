package search

import (
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// TestWarmSeedLeadsPool verifies that a warm mapping heads the seed
// pool regardless of score: Stats.SeedScore — seeds[0]'s score — must
// be the warm mapping's own (mediocre) score, not the best heuristic
// candidate's.
func TestWarmSeedLeadsPool(t *testing.T) {
	r := rng.New(5)
	c := chain.PaperRandom(r, 8)
	pl := platform.PaperHeterogeneous(r, 8)
	// A deliberately mediocre but valid mapping: single interval on the
	// first processor.
	warm := mapping.Mapping{Parts: interval.Single(len(c)), Procs: [][]int{{0}}}
	warmScore := mapping.EvaluateUnchecked(c, pl, warm).LogRel
	cold, okC, err := Optimize(c, pl, Options{Restarts: 1, Budget: 1, Seed: 1})
	if err != nil || !okC {
		t.Fatalf("cold: ok=%v err=%v", okC, err)
	}
	if cold.Stats.SeedScore == warmScore {
		t.Fatal("degenerate: best heuristic seed scores like the warm mapping")
	}
	res, ok, err := Optimize(c, pl, Options{
		warm:     &warm,
		Restarts: 1, Budget: 1, Seed: 1,
	})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if res.Stats.SeedScore != warmScore {
		t.Fatalf("SeedScore = %g, want warm score %g (warm mapping must lead the pool)",
			res.Stats.SeedScore, warmScore)
	}
}

// TestWarmImprovesOrMatches: with a real budget the search must never
// return anything worse than a feasible warm seed.
func TestWarmImprovesOrMatches(t *testing.T) {
	r := rng.New(6)
	c := chain.PaperRandom(r, 12)
	pl := platform.PaperHeterogeneous(r, 10)
	warm := mapping.Mapping{Parts: interval.Single(len(c)), Procs: [][]int{{3}}}
	evWarm := mapping.EvaluateUnchecked(c, pl, warm)
	res, ok, err := Optimize(c, pl, Options{
		warm: &warm, Restarts: 2, Budget: 400, Seed: 1,
	})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if res.Ev.LogRel < evWarm.LogRel {
		t.Fatalf("search returned %g, worse than warm seed %g", res.Ev.LogRel, evWarm.LogRel)
	}
}

// TestWarmValidation: an invalid warm mapping must error, not silently
// join the pool.
func TestWarmValidation(t *testing.T) {
	r := rng.New(7)
	c := chain.PaperRandom(r, 6)
	pl := platform.PaperHeterogeneous(r, 6)
	bad := mapping.Mapping{Parts: interval.Single(len(c)), Procs: [][]int{{99}}}
	if _, _, err := Optimize(c, pl, Options{warm: &bad}); err == nil {
		t.Fatal("invalid warm mapping accepted")
	}
}
