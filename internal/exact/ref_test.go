package exact_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/cost"
	"relpipe/internal/exact"
	"relpipe/internal/exact/exactref"
	"relpipe/internal/mapping"
	"relpipe/internal/multichain"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// refDegrees are the parallelism degrees the reference differentials
// sweep: sequential, a split, and far above GOMAXPROCS.
var refDegrees = []int{1, 2, 8}

// certainFailure fails every processor at rate 50 per time unit, so a
// stage's failure probability rounds to 1 and its LogRel is −Inf.
var certainFailure = platform.Homogeneous(7, 1, 50, 1, 1e-3, 3)

// refPlatforms covers the corners of the term table: the paper's
// platform, K > P, K = 1, fewer processors than tasks (partitions are
// skipped), failure rates that round a stage failure probability to 1
// (LogRel −Inf, gains NaN), and a replica bound past the table depth.
var refPlatforms = []struct {
	name string
	pl   platform.Platform
}{
	{"paper", platform.PaperHomogeneous(10)},
	{"K>P", platform.Homogeneous(4, 1, 1e-3, 1, 1e-4, 6)},
	{"K=1", platform.Homogeneous(9, 1, 1e-2, 2, 1e-3, 1)},
	{"P<n", platform.Homogeneous(3, 2, 1e-2, 1, 1e-3, 2)},
	{"certain-failure", certainFailure},
	{"deep", platform.Homogeneous(70, 1, 1e-1, 1, 1e-2, 66)},
}

// sameBits reports the first difference between two profile lists,
// comparing every float by its bits (so −0 differs from +0), or "".
func sameBits(got, want []exact.Profile) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d profiles, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if !slices.Equal(g.Ends, w.Ends) || !slices.Equal(g.Counts, w.Counts) ||
			math.Float64bits(g.Period) != math.Float64bits(w.Period) ||
			math.Float64bits(g.Latency) != math.Float64bits(w.Latency) ||
			math.Float64bits(g.LogRel) != math.Float64bits(w.LogRel) {
			return fmt.Sprintf("profile %d = %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// TestProfilesMatchReference pins the table-driven enumeration to the
// per-partition reference (Algo-Alloc then a full evaluation) on seeded
// instances up to 14 tasks: the same profiles in the same order, every
// float bit-identical, at every parallelism degree.
func TestProfilesMatchReference(t *testing.T) {
	for _, tp := range refPlatforms {
		for seed := uint64(1); seed <= 6; seed++ {
			n := 2 + int(seed*7+uint64(len(tp.name)))%13
			if tp.name == "deep" {
				n = min(n, 9) // 70 processors: keep the reference greedy quick
			}
			c := chain.PaperRandom(rng.New(seed), n)
			want, err := exactref.Profiles(c, tp.pl)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range refDegrees {
				got, err := exact.ProfilesPar(context.Background(), c, tp.pl, p)
				if err != nil {
					t.Fatalf("%s seed %d P=%d: %v", tp.name, seed, p, err)
				}
				if d := sameBits(got, want); d != "" {
					t.Fatalf("%s seed %d n=%d P=%d: %s", tp.name, seed, n, p, d)
				}
			}
		}
	}
}

// TestProfilesCertainFailure checks that the certain-failure platform
// really drives a stage's log-reliability to −Inf, so the reference
// test above covers the NaN gains.
func TestProfilesCertainFailure(t *testing.T) {
	ps, err := exact.Profiles(chain.PaperRandom(rng.New(1), 6), certainFailure)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(ps, func(p exact.Profile) bool { return math.IsInf(p.LogRel, -1) }) {
		t.Fatal("no profile with LogRel -Inf")
	}
}

// TestOptimalStreamingMatchesBestUnder pins OptimalPar's per-shard
// incumbents to BestUnder over the reference profiles: the same mapping
// and evaluation, or ErrInfeasible for the same bounds, including
// bounds no partition meets.
func TestOptimalStreamingMatchesBestUnder(t *testing.T) {
	r := rng.New(77)
	for _, tp := range refPlatforms {
		for seed := uint64(1); seed <= 3; seed++ {
			n := 3 + int(seed*5)%10
			if tp.name == "deep" {
				n = min(n, 8)
			}
			c := chain.PaperRandom(rng.New(seed+100), n)
			ref, err := exactref.Profiles(c, tp.pl)
			if err != nil {
				t.Fatal(err)
			}
			total := c.Work(0, n-1)
			for trial := range 8 {
				period, latency := r.Uniform(0.05, 1.2)*total, r.Uniform(0.3, 2)*total
				switch trial {
				case 0:
					period, latency = 0, 0
				case 1:
					period = 1e-3 // infeasible
				case 2:
					latency = 0
				}
				var wantM mapping.Mapping
				var wantEv mapping.Eval
				i := exact.BestUnder(ref, period, latency)
				if i >= 0 {
					wantM = exact.Materialize(ref[i])
					if wantEv, err = mapping.Evaluate(c, tp.pl, wantM); err != nil {
						t.Fatal(err)
					}
				}
				for _, p := range refDegrees {
					m, ev, err := exact.OptimalPar(context.Background(), c, tp.pl, period, latency, p)
					if i < 0 {
						if !errors.Is(err, exact.ErrInfeasible) {
							t.Fatalf("%s seed %d bounds (%v, %v) P=%d: err = %v, want ErrInfeasible", tp.name, seed, period, latency, p, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s seed %d bounds (%v, %v) P=%d: %v", tp.name, seed, period, latency, p, err)
					}
					if !reflect.DeepEqual(m, wantM) || !reflect.DeepEqual(ev, wantEv) {
						t.Fatalf("%s seed %d bounds (%v, %v) P=%d: got %v %v, want %v %v",
							tp.name, seed, period, latency, p, m, ev, wantM, wantEv)
					}
				}
			}
		}
	}
}

// FuzzProfiles cross-checks ProfilesPar, cost.MinimizePar and
// multichain.Map against their per-partition references on
// fuzzer-chosen chains, homogeneous platforms, prices, floors and
// bounds, every float by its bits. The committed corpus in
// testdata/fuzz/FuzzProfiles replays in every plain `go test` run.
func FuzzProfiles(f *testing.F) {
	f.Add(uint64(1), uint8(10), uint8(10), uint8(3), int8(-8), int8(-5), uint8(1))
	f.Add(uint64(2), uint8(12), uint8(3), uint8(2), int8(-2), int8(-3), uint8(2))
	f.Add(uint64(3), uint8(8), uint8(5), uint8(9), int8(2), int8(-1), uint8(8))
	f.Add(uint64(4), uint8(6), uint8(70), uint8(66), int8(-1), int8(-2), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, n, procs, k uint8, rateExp, linkExp int8, degree uint8) {
		tasks := 1 + int(n)%12
		p := 1 + int(procs)%72
		r := rng.New(seed)
		c := chain.Random(r, tasks, r.Uniform(0.1, 10), r.Uniform(10, 100), r.Uniform(0, 1), r.Uniform(1, 20))
		pl := platform.Homogeneous(p, r.Uniform(0.5, 4), math.Pow(10, float64(rateExp%10)),
			r.Uniform(0.5, 4), math.Pow(10, float64(linkExp%10)), 1+int(k)%70)
		want, err := exactref.Profiles(c, pl)
		if err != nil {
			t.Skip(err)
		}
		par := 1 + int(degree)%8
		got, err := exact.ProfilesPar(context.Background(), c, pl, par)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameBits(got, want); d != "" {
			t.Fatal(d)
		}
		if len(want) == 0 {
			return
		}
		total := c.Work(0, tasks-1)
		period, latency := r.Uniform(0.05, 1.2)*total, r.Uniform(0.3, 2)*total
		if r.IntN(3) == 0 {
			period, latency = 0, 0
		}
		floor := want[r.IntN(len(want))].LogRel
		if d := minCostDiff(c, pl, floor, period, latency, par, r.Uint64()); d != "" {
			t.Fatal(d)
		}
		if d := sharedDiff(c, pl, period, latency); d != "" {
			t.Fatal(d)
		}
	})
}

// sameEvalBits reports whether two evaluations agree on every float by
// its bits.
func sameEvalBits(a, b mapping.Eval) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if !eq(a.LogRel, b.LogRel) || !eq(a.FailProb, b.FailProb) ||
		!eq(a.ExpLatency, b.ExpLatency) || !eq(a.WorstLatency, b.WorstLatency) ||
		!eq(a.ExpPeriod, b.ExpPeriod) || !eq(a.WorstPeriod, b.WorstPeriod) ||
		len(a.Stages) != len(b.Stages) {
		return false
	}
	for j, sa := range a.Stages {
		sb := b.Stages[j]
		if !eq(sa.Work, sb.Work) || !eq(sa.In, sb.In) || !eq(sa.Out, sb.Out) ||
			!eq(sa.FailProb, sb.FailProb) || !eq(sa.ExpCost, sb.ExpCost) || !eq(sa.WorstCost, sb.WorstCost) {
			return false
		}
	}
	return true
}

// minCostDiff runs cost.MinimizePar at degree par and the reference
// exactref.MinCost on one instance, with processor prices drawn from
// priceSeed, and reports the first difference, or "": the same error
// class, and else the same mapping (partition ends, replica counts and
// processors) with every float of TotalCost and Eval bit-identical.
func minCostDiff(c chain.Chain, pl platform.Platform, minLogRel, period, latency float64, par int, priceSeed uint64) string {
	r := rng.New(priceSeed)
	costs := make([]float64, pl.P())
	for u := range costs {
		costs[u] = float64(r.IntN(4)) + r.Uniform(0, 1)
	}
	want, wantErr := exactref.MinCost(c, pl, costs, minLogRel, period, latency)
	got, err := cost.MinimizePar(context.Background(), c, pl, costs, minLogRel, period, latency, par)
	switch {
	case wantErr != nil || err != nil:
		if !errors.Is(wantErr, cost.ErrInfeasible) || !errors.Is(err, cost.ErrInfeasible) {
			return fmt.Sprintf("min-cost floor %v bounds (%v, %v) P=%d: err = %v, want %v", minLogRel, period, latency, par, err, wantErr)
		}
	case !reflect.DeepEqual(got.Mapping, want.Mapping) ||
		math.Float64bits(got.TotalCost) != math.Float64bits(want.TotalCost) || !sameEvalBits(got.Eval, want.Eval):
		return fmt.Sprintf("min-cost floor %v bounds (%v, %v) P=%d: got %+v, want %+v", minLogRel, period, latency, par, got, want)
	}
	return ""
}

// sharedDiff runs multichain.Map on the single application (c, period,
// latency) and reports the first difference from the reference curve
// exactref.Curve, or "". With one application Map's knapsack takes the
// smallest budget at which the curve, plus the empty prefix's 0, is
// strictly best; the mapping there must have the curve's partition
// ends and replica counts, and the joint log-reliability its bits.
func sharedDiff(c chain.Chain, pl platform.Platform, period, latency float64) string {
	res, err := multichain.Map([]multichain.App{{Chain: c, Period: period, Latency: latency}}, pl)
	cv, cvErr := exactref.Curve(c, period, latency, pl, pl.P())
	budget, best := -1, math.Inf(-1)
	if cvErr == nil {
		for k := cv.MinProcs; k <= pl.P(); k++ {
			if v := 0 + cv.LogRel[k]; !math.IsInf(cv.LogRel[k], -1) && v > best {
				budget, best = k, v
			}
		}
	}
	if budget < 0 {
		if !errors.Is(err, multichain.ErrInfeasible) {
			return fmt.Sprintf("shared bounds (%v, %v): err = %v, want ErrInfeasible", period, latency, err)
		}
		return ""
	}
	if err != nil {
		return fmt.Sprintf("shared bounds (%v, %v): %v", period, latency, err)
	}
	m := res.Mappings[0]
	counts := make([]int, len(m.Procs))
	for j, procs := range m.Procs {
		counts[j] = len(procs)
	}
	if !slices.Equal(m.Parts.Ends(), cv.Ends[budget]) || !slices.Equal(counts, cv.Counts[budget]) ||
		math.Float64bits(res.LogRel) != math.Float64bits(best) {
		return fmt.Sprintf("shared bounds (%v, %v): got ends %v counts %v logRel %v, want %v %v %v",
			period, latency, m.Parts.Ends(), counts, res.LogRel, cv.Ends[budget], cv.Counts[budget], best)
	}
	return ""
}

// TestMinCostAndSharedMatchReference pins the two other Sweep callers,
// the min-cost solver at every parallelism degree and the
// shared-platform solver, to their per-partition references on the
// term-table corner platforms: floors from unconstrained through
// reachable to out of reach, with and without bounds.
func TestMinCostAndSharedMatchReference(t *testing.T) {
	for _, tp := range refPlatforms {
		for seed := uint64(1); seed <= 4; seed++ {
			n := 2 + int(seed*5+uint64(len(tp.name)))%11
			if tp.name == "deep" {
				n = min(n, 8)
			}
			c := chain.PaperRandom(rng.New(seed+200), n)
			ps, err := exactref.Profiles(c, tp.pl)
			if err != nil {
				t.Fatal(err)
			}
			floors := []float64{math.Inf(-1), 0}
			for _, i := range []int{0, len(ps) / 2, len(ps) - 1} {
				if i >= 0 && i < len(ps) {
					floors = append(floors, ps[i].LogRel)
				}
			}
			total := c.Work(0, n-1)
			for _, b := range [][2]float64{{0, 0}, {0.4 * total, 1.5 * total}, {1e-3, 0}} {
				for _, floor := range floors {
					for _, p := range refDegrees {
						if d := minCostDiff(c, tp.pl, floor, b[0], b[1], p, seed); d != "" {
							t.Fatalf("%s seed %d n=%d: %s", tp.name, seed, n, d)
						}
					}
				}
				if d := sharedDiff(c, tp.pl, b[0], b[1]); d != "" {
					t.Fatalf("%s seed %d n=%d: %s", tp.name, seed, n, d)
				}
			}
		}
	}
}
