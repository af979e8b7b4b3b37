package search

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"relpipe/internal/chain"
	"relpipe/internal/exact"
	"relpipe/internal/exact/exactref"
	"relpipe/internal/heur"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// TestSearchQuality is the CI heuristic-quality gate: a pinned
// instance set whose results are fully deterministic (fixed seeds,
// fixed budgets), so any algorithmic regression — a weaker gap on
// exhaustive instances, a smaller improvement over the raw §7 seeds on
// large chains, or a blown wall-time budget — fails the job instead of
// slipping silently. Thresholds leave generous margins below the
// observed values; see ci.yml's heuristic-quality job.
func TestSearchQuality(t *testing.T) {
	t.Run("ExhaustiveGap", testQualityExhaustiveGap)
	t.Run("LargeNBeatsSeeds", testQualityLargeNBeatsSeeds)
	t.Run("LargeNWallTime", testQualityLargeNWallTime)
}

// testQualityExhaustiveGap pins the search-vs-exact reliability gap on
// solvable instances, homogeneous and heterogeneous.
func testQualityExhaustiveGap(t *testing.T) {
	type inst struct {
		seed     uint64
		n, p     int
		het      bool
		per, lat float64
	}
	for _, tc := range []inst{
		{seed: 11, n: 8, p: 8, het: false, per: 120, lat: 500},
		{seed: 12, n: 12, p: 8, het: false, per: 90, lat: 700},
		{seed: 13, n: 8, p: 6, het: true, per: 30, lat: 150},
		{seed: 14, n: 10, p: 6, het: true, per: 25, lat: 200},
	} {
		r := rng.New(tc.seed)
		c := chain.PaperRandom(r, tc.n)
		var pl platform.Platform
		var evE struct{ LogRel float64 }
		var errE error
		if tc.het {
			pl = platform.PaperHeterogeneous(r, tc.p)
			_, ev, err := exactref.OptimalHetPar(context.Background(), c, pl, tc.per, tc.lat, 1)
			evE.LogRel, errE = ev.LogRel, err
		} else {
			pl = platform.PaperHomogeneous(tc.p)
			_, ev, err := exact.OptimalPar(context.Background(), c, pl, tc.per, tc.lat, 1)
			evE.LogRel, errE = ev.LogRel, err
		}
		res, ok, err := Optimize(c, pl, Options{Period: tc.per, Latency: tc.lat, Seed: 1})
		if err != nil {
			t.Fatalf("seed %d: %v", tc.seed, err)
		}
		if (errE == nil) != ok {
			t.Fatalf("seed %d: exact err=%v, search ok=%v", tc.seed, errE, ok)
		}
		if !ok {
			continue
		}
		if !res.Ev.MeetsBounds(tc.per, tc.lat) {
			t.Fatalf("seed %d: bounds violated: %v", tc.seed, res.Ev)
		}
		checkGap(t, fmt.Sprintf("seed %d", tc.seed), res.Ev.LogRel, evE.LogRel)
	}
}

// largeInstances are the pinned large-n gate instances: bounds tight
// enough that the raw heuristics leave real reliability on the table.
var largeInstances = []struct {
	seed        uint64
	n, p        int
	per, lat    float64
	minImproved float64 // required relative failure-gap reduction in log space
}{
	// Observed improvement ~60% (logRel -7.56e-14 → -3.04e-14).
	{seed: 42, n: 100, p: 30, per: 25, lat: 600, minImproved: 0.25},
	// Observed improvement ~96% (logRel -2.75e-12 → -1.01e-13).
	{seed: 42, n: 500, p: 60, per: 60, lat: 4200, minImproved: 0.50},
}

// testQualityLargeNBeatsSeeds requires the search to strictly improve
// on the better of the raw Heur-L/Heur-P results at default budgets.
func testQualityLargeNBeatsSeeds(t *testing.T) {
	for _, tc := range largeInstances {
		r := rng.New(tc.seed)
		c := chain.PaperRandom(r, tc.n)
		pl := platform.PaperHeterogeneous(r, tc.p)
		hres, hok, err := heur.Best(c, pl, heur.Options{Period: tc.per, Latency: tc.lat}, nil)
		if err != nil || !hok {
			t.Fatalf("n=%d: heuristic seed missing (ok=%v err=%v)", tc.n, hok, err)
		}
		res, ok, err := Optimize(c, pl, Options{Period: tc.per, Latency: tc.lat, Seed: 1})
		if err != nil || !ok {
			t.Fatalf("n=%d: search failed (ok=%v err=%v)", tc.n, ok, err)
		}
		if !res.Ev.MeetsBounds(tc.per, tc.lat) {
			t.Fatalf("n=%d: bounds violated: %v", tc.n, res.Ev)
		}
		// Both log-reliabilities are negative; improvement is the
		// fraction of the seed's log failure gap the search removed.
		improved := 1 - res.Ev.LogRel/hres.Ev.LogRel
		if improved < tc.minImproved {
			t.Fatalf("n=%d: improvement %.3f below gate %.3f (heur %g, search %g)",
				tc.n, improved, tc.minImproved, hres.Ev.LogRel, res.Ev.LogRel)
		}
		t.Logf("n=%d: heur logRel %g → search %g (%.1f%% improvement)",
			tc.n, hres.Ev.LogRel, res.Ev.LogRel, 100*improved)
	}
}

// testQualityLargeNWallTime requires the default budget to finish a
// 500-stage solve comfortably within the CI wall-time gate. The bound
// is deliberately loose (observed ~1s sequential on one slow core,
// ~10s under -race) so only a complexity regression can trip it.
func testQualityLargeNWallTime(t *testing.T) {
	const wallBudget = 90 * time.Second
	tc := largeInstances[len(largeInstances)-1]
	r := rng.New(tc.seed)
	c := chain.PaperRandom(r, tc.n)
	pl := platform.PaperHeterogeneous(r, tc.p)
	start := time.Now()
	res, ok, err := Optimize(c, pl, Options{Period: tc.per, Latency: tc.lat, Seed: 1})
	elapsed := time.Since(start)
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if elapsed > wallBudget {
		t.Fatalf("500-stage default-budget solve took %v > %v", elapsed, wallBudget)
	}
	if math.IsInf(res.Ev.LogRel, -1) {
		t.Fatal("degenerate result")
	}
	t.Logf("n=%d default budget: %v, %d iterations", tc.n, elapsed, res.Stats.Iterations)
}
