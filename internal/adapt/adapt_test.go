package adapt

import (
	"context"
	"math"
	"reflect"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/dp"
	"relpipe/internal/heur"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// testInstance is a small instance with observable crash rates: the
// per-data-set rates stay tiny (reliability near 1) while LifeScale
// brings a handful of crashes into a 1000-unit mission.
func testInstance(t *testing.T, n, p int) (chain.Chain, platform.Platform, mapping.Mapping) {
	t.Helper()
	c := chain.PaperRandom(rng.New(7), n)
	pl := platform.PaperHomogeneous(p)
	m, _, err := dp.OptimizeReliability(c, pl)
	if err != nil {
		t.Fatalf("optimize: %v", err)
	}
	return c, pl, m
}

// hetInstance builds a heterogeneous instance with a heur.Best mapping.
func hetInstance(t *testing.T, seed uint64, n, p int, per, lat float64) (chain.Chain, platform.Platform, mapping.Mapping) {
	t.Helper()
	r := rng.New(seed)
	c := chain.PaperRandom(r, n)
	pl := platform.PaperHeterogeneous(r, p)
	res, ok, err := heur.Best(c, pl, heur.Options{Period: per, Latency: lat}, nil)
	if err != nil || !ok {
		t.Fatalf("heur.Best: ok=%v err=%v", ok, err)
	}
	return c, pl, res.M
}

// lifeOpts returns options that produce several crashes per mission on
// the paper platform (λ_p = 1e-8, so LifeScale 1e5 gives a per-proc
// crash rate of 1e-3 per time unit: ~1 crash per proc per mission).
func lifeOpts(policy Policy) Options {
	return Options{
		Policy:    policy,
		Horizon:   1000,
		LifeScale: 1e5,
		Seed:      1,
		Spares:    2,
	}
}

func TestZeroCrashReproducesStatic(t *testing.T) {
	// Zero-failure-rate processors: no crashes ever, but the links keep
	// a non-trivial per-data-set failure probability. Every policy must
	// reproduce the static mapping's reliability exactly.
	c := chain.PaperRandom(rng.New(3), 6)
	pl := platform.Homogeneous(8, 1, 0, 1, 1e-4, 3)
	// A multi-interval mapping so boundary communications keep the
	// per-data-set reliability strictly below 1 (a single interval has
	// no links and would make the comparison vacuous).
	m := mapping.AssignSequential(interval.FromEnds([]int{1, 3, 5}), []int{2, 3, 3})
	ev, err := mapping.Evaluate(c, pl, m)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	if ev.LogRel == 0 {
		t.Fatal("degenerate instance: static reliability is exactly 1")
	}
	const horizon = 5000.0
	for _, policy := range Policies() {
		res, err := Run(c, pl, m, Options{Policy: policy, Horizon: horizon, Seed: 9, Spares: 1})
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		mt := res.Metrics
		if mt.Crashes != 0 || len(res.Events) != 0 {
			t.Fatalf("%v: unexpected crashes: %+v", policy, mt)
		}
		if mt.MeanLogRel != ev.LogRel {
			t.Fatalf("%v: MeanLogRel = %g, want static %g", policy, mt.MeanLogRel, ev.LogRel)
		}
		wantSurv := (horizon / ev.WorstPeriod) * ev.LogRel
		if mt.MissionLogSurvival != wantSurv {
			t.Fatalf("%v: MissionLogSurvival = %g, want %g", policy, mt.MissionLogSurvival, wantSurv)
		}
		if mt.Availability != 1 || mt.Violated || mt.Repairs != 0 {
			t.Fatalf("%v: metrics drifted on a crash-free run: %+v", policy, mt)
		}
		if !reflect.DeepEqual(res.Final, m) {
			t.Fatalf("%v: final mapping changed without a crash", policy)
		}
	}
}

func TestBatchBitIdenticalAcrossParallelism(t *testing.T) {
	c, pl, m := hetInstance(t, 21, 12, 8, 0, 0)
	for _, policy := range Policies() {
		opts := lifeOpts(policy)
		opts.Restarts, opts.Budget = 1, 200
		base, err := RunBatch(context.Background(), c, pl, m, opts, 6, 1, nil)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if crashes := base.Summarize().MeanCrashes; crashes == 0 {
			t.Fatalf("%v: test instance produced no crashes; raise LifeScale", policy)
		}
		for _, degree := range []int{2, 8} {
			got, err := RunBatch(context.Background(), c, pl, m, opts, 6, degree, nil)
			if err != nil {
				t.Fatalf("%v P=%d: %v", policy, degree, err)
			}
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("%v: batch differs between P=1 and P=%d", policy, degree)
			}
		}
	}
}

func TestSeedZeroAliasesDefaultSeed(t *testing.T) {
	c, pl, m := testInstance(t, 5, 6)
	opts0 := lifeOpts(PolicyGreedy)
	opts0.Seed = 0
	opts1 := lifeOpts(PolicyGreedy)
	opts1.Seed = 1
	b0, err := RunBatch(context.Background(), c, pl, m, opts0, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := RunBatch(context.Background(), c, pl, m, opts1, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b0, b1) {
		t.Fatal("seed 0 does not alias seed 1")
	}
	r0, err := Run(c, pl, m, opts0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(c, pl, m, opts1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r0, r1) {
		t.Fatal("single run: seed 0 does not alias seed 1")
	}
}

func TestPolicyNoneGoesDownAndStaysDown(t *testing.T) {
	// One interval, one replica, one processor with a certain crash:
	// the mission must go down at the crash time and stay down.
	c := chain.Chain{{Work: 10, Out: 0}}
	pl := platform.Homogeneous(1, 1, 1e-2, 1, 0, 1)
	m := mapping.Mapping{Parts: interval.Single(1), Procs: [][]int{{0}}}
	res, err := Run(c, pl, m, Options{Policy: PolicyNone, Horizon: 1000, LifeScale: 100, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mt := res.Metrics
	if mt.Crashes != 1 {
		t.Fatalf("Crashes = %d, want 1", mt.Crashes)
	}
	if len(res.Events) != 1 || res.Events[0].Action != ActionDown || !res.Events[0].Down {
		t.Fatalf("events = %+v, want one down event", res.Events)
	}
	if mt.MissionReliability != 0 || !math.IsInf(mt.MissionLogSurvival, -1) {
		t.Fatalf("mission reliability = %g, want 0", mt.MissionReliability)
	}
	if !mt.Violated || mt.TimeToFirstViolation != res.Events[0].Time {
		t.Fatalf("violation not recorded at crash time: %+v", mt)
	}
	wantAvail := res.Events[0].Time / 1000
	if math.Abs(mt.Availability-wantAvail) > 1e-12 {
		t.Fatalf("Availability = %g, want %g", mt.Availability, wantAvail)
	}
}

func TestSparesSwapPreservesMapping(t *testing.T) {
	c, pl, m := testInstance(t, 4, 6)
	opts := lifeOpts(PolicySpares)
	opts.Spares = 100 // never exhausts within this mission
	opts.SpareCost = 2.5
	res, err := Run(c, pl, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	mt := res.Metrics
	if mt.Crashes == 0 {
		t.Fatal("no crashes; raise LifeScale")
	}
	if mt.SparesUsed == 0 || mt.Repairs != mt.SparesUsed {
		t.Fatalf("spares not consumed: %+v", mt)
	}
	if mt.Availability != 1 || mt.MissionReliability == 0 {
		t.Fatalf("spare swaps should keep the mission up: %+v", mt)
	}
	// The final mapping is the initial one up to replica order.
	if got, want := procSet(res.Final), procSet(m); !reflect.DeepEqual(got, want) {
		t.Fatalf("final procs %v, want %v", got, want)
	}
	if want := 2.5 * float64(mt.SparesUsed); mt.ResidualCost != want {
		t.Fatalf("ResidualCost = %g, want %g", mt.ResidualCost, want)
	}
	// The mean per-data-set reliability equals the static one: every
	// up segment runs the same (restored) mapping.
	ev, _ := mapping.Evaluate(c, pl, m)
	if mt.MeanLogRel != ev.LogRel {
		t.Fatalf("MeanLogRel = %g, want %g", mt.MeanLogRel, ev.LogRel)
	}
}

func procSet(m mapping.Mapping) [][]int {
	out := make([][]int, len(m.Procs))
	for j, ps := range m.Procs {
		s := append([]int(nil), ps...)
		for i := 1; i < len(s); i++ {
			for k := i; k > 0 && s[k] < s[k-1]; k-- {
				s[k], s[k-1] = s[k-1], s[k]
			}
		}
		out[j] = s
	}
	return out
}

func TestSparesExhaustionDegrades(t *testing.T) {
	c, pl, m := testInstance(t, 4, 6)
	opts := lifeOpts(PolicySpares)
	opts.Spares = 1
	res, err := Run(c, pl, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.SparesUsed != 1 {
		t.Fatalf("SparesUsed = %d, want 1 (pool size)", res.Metrics.SparesUsed)
	}
	if res.Metrics.Crashes <= 1 {
		t.Fatal("want more crashes than spares for this test")
	}
	// After the pool is empty, later events must degrade, not swap.
	sawPostPoolDegrade := false
	swaps := 0
	for _, ev := range res.Events {
		switch ev.Action {
		case ActionSpare:
			swaps++
		case ActionDegrade, ActionDown:
			if swaps == 1 {
				sawPostPoolDegrade = true
			}
		}
	}
	if !sawPostPoolDegrade {
		t.Fatalf("no degrade after pool exhaustion: %+v", res.Events)
	}
}

func TestGreedyPatchesWithIdleProcessor(t *testing.T) {
	// 2 intervals on 3 processors: one processor stays idle, so the
	// first harmed interval must be patched with it.
	c := chain.Chain{{Work: 10, Out: 1}, {Work: 10, Out: 0}}
	pl := platform.Homogeneous(3, 1, 1e-3, 1, 0, 2)
	m := mapping.Mapping{
		Parts: interval.FromEnds([]int{0, 1}),
		Procs: [][]int{{0}, {1}},
	}
	res, err := Run(c, pl, m, Options{Policy: PolicyGreedy, Horizon: 200, LifeScale: 100, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	foundPatch := false
	for _, ev := range res.Events {
		if ev.Action == ActionGreedy {
			foundPatch = true
			if ev.Down {
				t.Fatalf("greedy patch left the system down: %+v", ev)
			}
		}
	}
	if !foundPatch {
		t.Fatalf("no greedy patch in %+v", res.Events)
	}
}

func TestRemapKeepsSystemUp(t *testing.T) {
	c, pl, m := hetInstance(t, 33, 10, 8, 0, 0)
	opts := lifeOpts(PolicyRemap)
	opts.Restarts, opts.Budget = 1, 200
	res, err := Run(c, pl, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	mt := res.Metrics
	if mt.Crashes == 0 {
		t.Fatal("no crashes; raise LifeScale")
	}
	if mt.Repairs == 0 {
		t.Fatalf("remap never repaired: %+v", res.Events)
	}
	if mt.Availability != 1 {
		t.Fatalf("remap should keep this mission up (8 procs, few crashes): %+v", mt)
	}
	if err := res.Final.Validate(c, pl); err != nil {
		t.Fatalf("final mapping invalid: %v", err)
	}
	// The final mapping must only use surviving processors.
	dead := map[int]bool{}
	for _, ev := range res.Events {
		dead[ev.Proc] = true
	}
	for _, ev := range res.Events {
		if ev.Action == ActionSpare {
			delete(dead, ev.Proc)
		}
	}
	for _, ps := range res.Final.Procs {
		for _, u := range ps {
			if dead[u] {
				t.Fatalf("final mapping uses dead processor %d", u)
			}
		}
	}
}

func TestRepairLatencyChargesDowntime(t *testing.T) {
	c, pl, m := testInstance(t, 4, 6)
	opts := lifeOpts(PolicySpares)
	opts.Spares = 100
	opts.RepairLatency = 1.5
	res, err := Run(c, pl, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	mt := res.Metrics
	if mt.Repairs == 0 {
		t.Fatal("no repairs")
	}
	want := 1.5 * float64(mt.Repairs)
	if math.Abs(mt.RepairTime-want) > 1e-9 {
		t.Fatalf("RepairTime = %g, want %g", mt.RepairTime, want)
	}
	if mt.Availability >= 1 {
		t.Fatalf("repair latency did not reduce availability: %+v", mt)
	}
	if mt.MissionReliability != 0 {
		t.Fatal("downtime must zero the mission reliability")
	}
}

func TestOptionsValidation(t *testing.T) {
	c, pl, m := testInstance(t, 4, 6)
	for name, opts := range map[string]Options{
		"no horizon":     {},
		"neg spares":     {Horizon: 10, Spares: -1},
		"neg spare cost": {Horizon: 10, SpareCost: -1},
		"neg latency":    {Horizon: 10, RepairLatency: -1},
		"bad costs len":  {Horizon: 10, Costs: []float64{1, 2}},
		"neg cost":       {Horizon: 10, Costs: []float64{1, 1, 1, -1, 1, 1}},
		"unknown policy": {Horizon: 10, Policy: Policy(42)},
		"inf horizon":    {Horizon: math.Inf(1)},
		"nan life scale": {Horizon: 10, LifeScale: math.NaN()},
		"inf life scale": {Horizon: 10, LifeScale: math.Inf(1)},
		"inf period":     {Horizon: 10, Period: math.Inf(1)},
		"nan latency":    {Horizon: 10, Latency: math.NaN()},
		"nan spare cost": {Horizon: 10, SpareCost: math.NaN()},
		"nan repair":     {Horizon: 10, RepairLatency: math.NaN()},
		"nan cost":       {Horizon: 10, Costs: []float64{1, 1, math.NaN(), 1, 1, 1}},
		"inf cost":       {Horizon: 10, Costs: []float64{1, 1, 1, 1, math.Inf(1), 1}},
	} {
		if _, err := Run(c, pl, m, opts); err == nil {
			t.Fatalf("%s: no error", name)
		}
	}
	if _, err := RunBatch(context.Background(), c, pl, m, Options{Horizon: 10}, 0, 1, nil); err == nil {
		t.Fatal("RunBatch accepted zero replications")
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v err %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Fatal("ParsePolicy accepted junk")
	}
}
