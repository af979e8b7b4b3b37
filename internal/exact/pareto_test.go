package exact_test

import (
	"math"
	"testing"
	"testing/quick"

	"relpipe/internal/chain"
	"relpipe/internal/exact"
	"relpipe/internal/frontier"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// TestParetoPreservesSweepAnswers: sweeping bounds over the Pareto set
// of the profiles gives the same answers as sweeping the full set.
func TestParetoPreservesSweepAnswers(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(8)
		c := chain.PaperRandom(r, n)
		pl := platform.Homogeneous(1+r.IntN(8), 1, 1e-2, 1, 1e-3, 3)
		ps, err := exact.Profiles(c, pl)
		if err != nil || len(ps) == 0 {
			return err == nil
		}
		pareto := frontier.Front(ps, exact.Profile.Criteria)
		if len(pareto) > len(ps) {
			return false
		}
		for trial := 0; trial < 10; trial++ {
			P := r.Uniform(10, 600)
			L := r.Uniform(50, 1500)
			iFull := exact.BestUnder(ps, P, L)
			iPar := exact.BestUnder(pareto, P, L)
			if (iFull < 0) != (iPar < 0) {
				return false
			}
			if iFull >= 0 && math.Abs(ps[iFull].LogRel-pareto[iPar].LogRel) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
