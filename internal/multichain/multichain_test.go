package multichain

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"relpipe/internal/chain"
	"relpipe/internal/exact"
	"relpipe/internal/exact/exactref"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

func homPl(p int) platform.Platform {
	return platform.Homogeneous(p, 1, 1e-2, 1, 1e-3, 3)
}

func TestMapSingleAppMatchesExact(t *testing.T) {
	// One application must reduce to the single-chain exact optimum.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := chain.PaperRandom(r, 2+r.IntN(6))
		pl := homPl(2 + r.IntN(6))
		app := App{Chain: c, Period: r.Uniform(50, 400), Latency: r.Uniform(100, 1200)}
		res, errM := Map([]App{app}, pl)
		_, evE, errE := exact.OptimalPar(context.Background(), c, pl, app.Period, app.Latency, 1)
		if (errM == nil) != (errE == nil) {
			return false
		}
		if errM != nil {
			return true
		}
		return math.Abs(res.LogRel-evE.LogRel) <= 1e-9*(1+math.Abs(evE.LogRel))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMapTwoAppsMatchesBruteForceSplit(t *testing.T) {
	// Two applications: compare against brute force over all processor
	// splits, solving each side exactly.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c1 := chain.PaperRandom(r, 2+r.IntN(4))
		c2 := chain.PaperRandom(r, 2+r.IntN(4))
		p := 3 + r.IntN(4)
		pl := homPl(p)
		a1 := App{Chain: c1, Period: r.Uniform(100, 400)}
		a2 := App{Chain: c2, Latency: r.Uniform(200, 900)}
		res, errM := Map([]App{a1, a2}, pl)

		best := math.Inf(-1)
		for k1 := 1; k1 < p; k1++ {
			pl1 := homPl(k1)
			pl2 := homPl(p - k1)
			_, ev1, err1 := exact.OptimalPar(context.Background(), c1, pl1, a1.Period, a1.Latency, 1)
			_, ev2, err2 := exact.OptimalPar(context.Background(), c2, pl2, a2.Period, a2.Latency, 1)
			if err1 != nil || err2 != nil {
				continue
			}
			if v := ev1.LogRel + ev2.LogRel; v > best {
				best = v
			}
		}
		if errM != nil {
			return math.IsInf(best, -1)
		}
		return math.Abs(res.LogRel-best) <= 1e-9*(1+math.Abs(best))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMapDisjointProcessors(t *testing.T) {
	r := rng.New(5)
	apps := []App{
		{Chain: chain.PaperRandom(r, 4)},
		{Chain: chain.PaperRandom(r, 5)},
		{Chain: chain.PaperRandom(r, 3)},
	}
	pl := homPl(9)
	res, err := Map(apps, pl)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mappings) != 3 {
		t.Fatalf("mappings = %d", len(res.Mappings))
	}
	seen := map[int]bool{}
	for i := range apps {
		if err := res.Mappings[i].Validate(apps[i].Chain, pl); err != nil {
			t.Fatalf("app %d: %v", i, err)
		}
		for _, u := range res.ProcessorsOf(i) {
			if seen[u] {
				t.Fatalf("processor %d assigned to two applications", u)
			}
			seen[u] = true
		}
	}
}

func TestMapRespectsPerAppBounds(t *testing.T) {
	r := rng.New(7)
	apps := []App{
		{Chain: chain.PaperRandom(r, 5), Period: 150, Latency: 600},
		{Chain: chain.PaperRandom(r, 5), Period: 300},
	}
	pl := homPl(8)
	res, err := Map(apps, pl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals[0].WorstPeriod > 150 || res.Evals[0].WorstLatency > 600 {
		t.Fatalf("app 0 bounds violated: %v", res.Evals[0])
	}
	if res.Evals[1].WorstPeriod > 300 {
		t.Fatalf("app 1 bounds violated: %v", res.Evals[1])
	}
	// Total log-reliability is the sum of the parts.
	sum := res.Evals[0].LogRel + res.Evals[1].LogRel
	if math.Abs(sum-res.LogRel) > 1e-9*(1+math.Abs(sum)) {
		t.Fatalf("LogRel %v != Σ evals %v", res.LogRel, sum)
	}
	if res.TotalFailProb() <= 0 || res.TotalFailProb() >= 1 {
		t.Fatalf("TotalFailProb = %v", res.TotalFailProb())
	}
}

func TestMapInfeasibleTooFewProcessors(t *testing.T) {
	r := rng.New(9)
	apps := []App{
		{Chain: chain.PaperRandom(r, 4)},
		{Chain: chain.PaperRandom(r, 4)},
	}
	_, err := Map(apps, homPl(1))
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestMapInfeasibleBounds(t *testing.T) {
	r := rng.New(11)
	apps := []App{{Chain: chain.PaperRandom(r, 4), Period: 1e-6}}
	_, err := Map(apps, homPl(4))
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestMapValidation(t *testing.T) {
	if _, err := Map(nil, homPl(2)); err == nil {
		t.Fatal("accepted no applications")
	}
	het := homPl(2)
	het.Procs[0].Speed = 2
	if _, err := Map([]App{{Chain: chain.Chain{{Work: 1, Out: 0}}}}, het); err == nil {
		t.Fatal("accepted heterogeneous platform")
	}
	if _, err := Map([]App{{Chain: chain.Chain{}}}, homPl(2)); err == nil {
		t.Fatal("accepted empty chain")
	}
}

func TestMoreProcessorsNeverHurtJointly(t *testing.T) {
	r := rng.New(13)
	apps := []App{
		{Chain: chain.PaperRandom(r, 4), Period: 200},
		{Chain: chain.PaperRandom(r, 4), Period: 200},
	}
	prev := math.Inf(-1)
	for _, p := range []int{2, 4, 6, 9, 12} {
		res, err := Map(apps, homPl(p))
		if err != nil {
			continue
		}
		if res.LogRel < prev-1e-12 {
			t.Fatalf("p=%d decreased joint reliability: %v -> %v", p, prev, res.LogRel)
		}
		prev = res.LogRel
	}
	if math.IsInf(prev, -1) {
		t.Fatal("no platform size was feasible")
	}
}

// TestCurveMatchesReference pins buildCurve to the per-partition
// reference exactref.Curve at every processor budget: the same
// minimum, every log-reliability by its bits, the same partition ends
// and replica counts. The platforms are the term-table corners of
// internal/exact's reference tests: the paper's, K > P, K = 1, fewer
// processors than tasks, certain failure (NaN gains), and a replica
// bound past the table depth. Seed 0 is a chain of identical tasks,
// whose mirror-image partitions tie exactly.
func TestCurveMatchesReference(t *testing.T) {
	platforms := []platform.Platform{
		platform.PaperHomogeneous(10),
		platform.Homogeneous(4, 1, 1e-3, 1, 1e-4, 6),
		platform.Homogeneous(9, 1, 1e-2, 2, 1e-3, 1),
		platform.Homogeneous(3, 2, 1e-2, 1, 1e-3, 2),
		platform.Homogeneous(7, 1, 50, 1, 1e-3, 3),
		platform.Homogeneous(70, 1, 1e-1, 1, 1e-2, 66),
	}
	for i, pl := range platforms {
		for seed := uint64(0); seed <= 4; seed++ {
			n := 2 + int(seed*3+uint64(i))%10
			if pl.P() == 70 {
				n = min(n, 7)
			}
			c := chain.PaperRandom(rng.New(seed+300), n)
			if seed == 0 {
				for j := range c {
					c[j] = chain.Task{Work: 20, Out: 2}
				}
				c[n-1].Out = 0
			}
			total := c.Work(0, n-1)
			for _, b := range [][2]float64{{0, 0}, {0.5 * total, 1.5 * total}, {1e-3, 0}} {
				app := App{Chain: c, Period: b[0], Latency: b[1]}
				got, err := buildCurve(app, pl, pl.P())
				want, wantErr := exactref.Curve(c, app.Period, app.Latency, pl, pl.P())
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("platform %d seed %d bounds %v: err = %v, want %v", i, seed, b, err, wantErr)
				}
				if err != nil {
					continue
				}
				if got.minProcs != want.MinProcs {
					t.Fatalf("platform %d seed %d bounds %v: minProcs %d, want %d", i, seed, b, got.minProcs, want.MinProcs)
				}
				for k, g := range got.best {
					if math.Float64bits(g.Value) != math.Float64bits(want.LogRel[k]) ||
						!slices.Equal(g.Ends, want.Ends[k]) || !slices.Equal(g.Counts, want.Counts[k]) {
						t.Fatalf("platform %d seed %d bounds %v budget %d: got %+v, want %v %v %v", i, seed, b, k,
							g, want.LogRel[k], want.Ends[k], want.Counts[k])
					}
				}
			}
		}
	}
}
