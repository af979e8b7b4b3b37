package search

// Exactness of the Metropolis shortcut: metropolis must answer exactly
// what the plain test u < Exp(delta/temperature(t0, it, budget))
// answers, for every draw u rng.Float64 can return and every iteration
// of every budget a search may run, including the float edge cases the
// proof in metropolis's doc comment walks through.

import (
	"math"
	"testing"

	"relpipe/internal/rng"
)

// maxSearchBudget is the service's default cap on the per-restart
// budget (internal/service Options.MaxSearchBudget).
const maxSearchBudget = 200000

// plainMetropolis is the acceptance test without the shortcut.
func plainMetropolis(u, delta, t0 float64, it, budget int) bool {
	return u < math.Exp(delta/temperature(t0, it, budget))
}

// checkMetropolis fails t unless metropolis agrees with the plain test
// and skips only draws the plain test rejects.
func checkMetropolis(t *testing.T, u, delta, t0 float64, it, budget int) (skipped bool) {
	t.Helper()
	accept, skipped := metropolis(u, delta, t0, it, budget)
	if want := plainMetropolis(u, delta, t0, it, budget); accept != want {
		t.Fatalf("metropolis(u=%v, delta=%v, t0=%v, it=%d, budget=%d) = %v, plain test %v",
			u, delta, t0, it, budget, accept, want)
	}
	if skipped && accept {
		t.Fatalf("metropolis(u=%v, delta=%v, t0=%v, it=%d, budget=%d) skipped and accepted", u, delta, t0, it, budget)
	}
	return skipped
}

func TestMetropolisMatchesPlainTest(t *testing.T) {
	const ulp = 1.0 / (1 << 53) // the smallest nonzero rng.Float64 draw
	us := []float64{0, ulp, 2 * ulp, 0.5, 1 - ulp}
	deltas := []float64{
		0, math.Copysign(0, -1), math.Inf(-1), math.NaN(),
		-math.SmallestNonzeroFloat64, -0x1p-1022, -1e-300,
		-1e-9, -1, -39.99, -40, -40.000001, -41, -1e3, -1e9, -math.MaxFloat64,
		1, math.Inf(1),
	}
	t0s := []float64{5e-11, 1e-3, 1, 0.05 * 1e9, math.Inf(1)}
	budgets := []int{1, 2, 1000, maxSearchBudget}
	skips := 0
	for _, budget := range budgets {
		for _, it := range []int{0, budget / 2, budget - 1} {
			for _, t0 := range t0s {
				for _, delta := range deltas {
					for _, u := range us {
						if checkMetropolis(t, u, delta, t0, it, budget) {
							skips++
						}
					}
				}
			}
		}
	}
	if skips == 0 {
		t.Fatal("no case took the shortcut")
	}
	// The cases the proof singles out.
	if _, skipped := metropolis(0, -1e6, 1, 0, 1); skipped {
		t.Error("u = 0 took the shortcut")
	}
	if _, skipped := metropolis(ulp, -1e6, 1, 0, 1); !skipped {
		t.Error("u = 2⁻⁵³ with delta/t0 = −1e6 did not take the shortcut")
	}
	if _, skipped := metropolis(0.5, math.NaN(), 1, 0, 1); skipped {
		t.Error("a NaN delta took the shortcut")
	}
	if _, skipped := metropolis(0.5, -1e300, math.Inf(1), 0, 1); skipped {
		t.Error("t0 = +Inf took the shortcut")
	}
}

// TestTemperatureFactorAtMostOne pins the proof's first step: the
// cooling factor temperature(1, it, budget) = Pow(1e-3, it/budget) is
// in (0, 1] for every iteration of budgets up to the service cap.
func TestTemperatureFactorAtMostOne(t *testing.T) {
	check := func(it, budget int) {
		if f := temperature(1, it, budget); !(f > 0 && f <= 1) {
			t.Fatalf("temperature(1, %d, %d) = %v, want in (0, 1]", it, budget, f)
		}
	}
	for budget := 1; budget <= 300; budget++ {
		for it := 0; it < budget; it++ {
			check(it, budget)
		}
	}
	r := rng.New(1)
	for k := 0; k < 300; k++ {
		budget := 1 + r.IntN(maxSearchBudget)
		check(0, budget)
		check(budget-1, budget)
		for i := 0; i < 200; i++ {
			check(r.IntN(budget), budget)
		}
	}
	for it := 0; it < maxSearchBudget; it += 7 {
		check(it, maxSearchBudget)
	}
	check(maxSearchBudget-1, maxSearchBudget)
}

// FuzzMetropolis compares metropolis with the plain test on
// fuzzer-chosen draws, deltas, scales and iterations. ubits maps to a
// draw as rng.Float64 maps its 64 random bits; budget and it are folded
// into 1 ≤ budget ≤ maxSearchBudget and 0 ≤ it < budget.
func FuzzMetropolis(f *testing.F) {
	f.Add(uint64(0), -1e6, 1.0, uint32(0), uint32(1))               // u = 0
	f.Add(uint64(1)<<11, -1e6, 1.0, uint32(0), uint32(1))           // u = 2⁻⁵³
	f.Add(uint64(1)<<63, math.Inf(-1), 5e-11, uint32(0), uint32(0)) // −Inf delta
	f.Add(uint64(1)<<63, math.NaN(), 1.0, uint32(5), uint32(10))
	f.Add(uint64(1)<<63, math.Copysign(0, -1), 1.0, uint32(3), uint32(4))
	f.Add(uint64(1)<<63, -math.SmallestNonzeroFloat64, 5e-11, uint32(0), uint32(1))
	f.Add(uint64(1)<<63, -1e300, math.Inf(1), uint32(maxSearchBudget-1), uint32(maxSearchBudget-1))
	f.Add(uint64(1)<<40, -40.5, 1.0, uint32(maxSearchBudget-1), uint32(maxSearchBudget-1))
	f.Add(^uint64(0), -2e-9, 5e-11, uint32(7), uint32(maxSearchBudget-1))
	f.Fuzz(func(t *testing.T, ubits uint64, delta, t0 float64, it, budget uint32) {
		u := float64(ubits>>11) / (1 << 53)
		b := 1 + int(budget%maxSearchBudget)
		checkMetropolis(t, u, delta, t0, int(it)%b, b)
	})
}
