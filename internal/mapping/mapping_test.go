package mapping

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"relpipe/internal/chain"
	"relpipe/internal/failure"
	"relpipe/internal/interval"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

func testChain() chain.Chain {
	return chain.Chain{
		{Work: 10, Out: 2}, {Work: 5, Out: 3}, {Work: 7, Out: 0},
	}
}

func homPlatform() platform.Platform {
	return platform.Homogeneous(6, 1, 1e-3, 1, 1e-4, 3)
}

func twoStageMapping() Mapping {
	return Mapping{
		Parts: interval.Partition{{First: 0, Last: 1}, {First: 2, Last: 2}},
		Procs: [][]int{{0, 1}, {2}},
	}
}

func TestValidateOK(t *testing.T) {
	if err := twoStageMapping().Validate(testChain(), homPlatform()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	c, pl := testChain(), homPlatform()
	cases := []struct {
		name string
		mut  func(*Mapping)
	}{
		{"no procs", func(m *Mapping) { m.Procs[1] = nil }},
		{"too many replicas", func(m *Mapping) { m.Procs[0] = []int{0, 1, 3, 4} }},
		{"proc out of range", func(m *Mapping) { m.Procs[1] = []int{17} }},
		{"negative proc", func(m *Mapping) { m.Procs[1] = []int{-1} }},
		{"proc reused", func(m *Mapping) { m.Procs[1] = []int{0} }},
		{"procs/parts mismatch", func(m *Mapping) { m.Procs = m.Procs[:1] }},
		{"bad partition", func(m *Mapping) { m.Parts = interval.Partition{{First: 0, Last: 0}} }},
	}
	for _, cs := range cases {
		m := twoStageMapping()
		cs.mut(&m)
		if err := m.Validate(c, pl); err == nil {
			t.Errorf("%s: Validate accepted invalid mapping", cs.name)
		}
	}
	// Past 64 processors the used-processor marks live on the heap.
	big := platform.Homogeneous(70, 1, 1e-3, 1, 1e-4, 3)
	m := Mapping{Parts: twoStageMapping().Parts, Procs: [][]int{{65, 69}, {66}}}
	if err := m.Validate(c, big); err != nil {
		t.Errorf("70 processors: %v", err)
	}
	m.Procs[1] = []int{69}
	if err := m.Validate(c, big); err == nil {
		t.Error("70 processors: Validate accepted a reused processor")
	}
}

func TestMask(t *testing.T) {
	// Three intervals on {3, 0, 4}, {1} and {5, 2}; processor 6 idle.
	m := Mapping{
		Parts: interval.Partition{{First: 0, Last: 0}, {First: 1, Last: 1}, {First: 2, Last: 2}},
		Procs: [][]int{{3, 0, 4}, {1}, {5, 2}},
	}
	cases := []struct {
		name            string
		dead            []int
		procs           [][]int
		whole, degraded bool
	}{
		{"all alive", nil, [][]int{{3, 0, 4}, {1}, {5, 2}}, true, false},
		{"idle dead", []int{6}, [][]int{{3, 0, 4}, {1}, {5, 2}}, true, false},
		{"middle replica dead", []int{0}, [][]int{{3, 4}, {1}, {5, 2}}, true, true},
		{"two replicas dead", []int{3, 2}, [][]int{{0, 4}, {1}, {5}}, true, true},
		{"interval emptied", []int{1}, [][]int{{3, 0, 4}, {}, {5, 2}}, false, true},
		{"everything dead", []int{0, 1, 2, 3, 4, 5, 6}, [][]int{{}, {}, {}}, false, true},
	}
	for _, tc := range cases {
		alive := []bool{true, true, true, true, true, true, true}
		for _, u := range tc.dead {
			alive[u] = false
		}
		before := m.Clone()
		masked, whole, degraded := m.Mask(alive)
		if whole != tc.whole || degraded != tc.degraded {
			t.Errorf("%s: whole=%v degraded=%v, want %v %v", tc.name, whole, degraded, tc.whole, tc.degraded)
		}
		if len(masked.Procs) != len(tc.procs) {
			t.Fatalf("%s: %d replica sets, want %d", tc.name, len(masked.Procs), len(tc.procs))
		}
		for j, want := range tc.procs {
			if fmt.Sprint(masked.Procs[j]) != fmt.Sprint(want) {
				t.Errorf("%s: interval %d replicas %v, want %v (order kept)", tc.name, j, masked.Procs[j], want)
			}
		}
		if fmt.Sprint(masked.Parts) != fmt.Sprint(m.Parts) {
			t.Errorf("%s: partition %v, want %v", tc.name, masked.Parts, m.Parts)
		}
		// Writing through the masked mapping must leave m untouched.
		masked.Parts[0].Last = 99
		for j := range masked.Procs {
			masked.Procs[j] = append(masked.Procs[j][:cap(masked.Procs[j])], 99)
			for i := range masked.Procs[j] {
				masked.Procs[j][i] = 99
			}
		}
		if m.String() != before.String() {
			t.Errorf("%s: Mask shares storage with its input: %v, was %v", tc.name, m, before)
		}
	}
}

func TestAssignSequential(t *testing.T) {
	parts := interval.Partition{{First: 0, Last: 1}, {First: 2, Last: 2}}
	m := AssignSequential(parts, []int{2, 1})
	if len(m.Procs[0]) != 2 || m.Procs[0][0] != 0 || m.Procs[0][1] != 1 {
		t.Fatalf("Procs[0] = %v", m.Procs[0])
	}
	if len(m.Procs[1]) != 1 || m.Procs[1][0] != 2 {
		t.Fatalf("Procs[1] = %v", m.Procs[1])
	}
	if err := m.Validate(testChain(), homPlatform()); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaFailProbHandComputed(t *testing.T) {
	pl := homPlatform() // s=1, λp=1e-3, b=1, λℓ=1e-4
	// work=15, in=0, out=3: fComp = 1-e^{-0.015}, fOut = 1-e^{-0.0003}
	got := ReplicaFailProb(pl, 0, 15, 0, 3)
	want := 1 - math.Exp(-1e-3*15)*math.Exp(-1e-4*3)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ReplicaFailProb = %v, want %v", got, want)
	}
}

func TestStageFailProbIsProductOfReplicas(t *testing.T) {
	pl := homPlatform()
	f1 := ReplicaFailProb(pl, 0, 15, 2, 3)
	got := StageFailProb(pl, []int{0, 1, 2}, 15, 2, 3)
	want := f1 * f1 * f1
	if math.Abs(got-want)/want > 1e-12 {
		t.Fatalf("StageFailProb = %v, want %v", got, want)
	}
}

func TestExpectedCostSingleProc(t *testing.T) {
	pl := homPlatform()
	// Single replica: conditioned on success, cost is exactly W/s.
	got := ExpectedCost(pl, []int{0}, 15)
	if math.Abs(got-15) > 1e-12 {
		t.Fatalf("ExpectedCost single = %v, want 15", got)
	}
}

func TestExpectedCostHandComputed(t *testing.T) {
	// Two processors, speeds 2 and 1, large failure rates so the effect
	// is visible. W = 10. Fast: t=5, f1 = 1-e^{-λ1·5}; slow: t=10.
	pl := platform.Platform{
		Procs:        []platform.Processor{{Speed: 2, FailRate: 0.1}, {Speed: 1, FailRate: 0.05}},
		Bandwidth:    1,
		LinkFailRate: 0,
		MaxReplicas:  3,
	}
	f1 := 1 - math.Exp(-0.1*5)
	f2 := 1 - math.Exp(-0.05*10)
	want := (5*(1-f1) + 10*(1-f2)*f1) / (1 - f1*f2)
	got := ExpectedCost(pl, []int{0, 1}, 10)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ExpectedCost = %v, want %v", got, want)
	}
	// Order of the processor list must not matter (sorted internally).
	got2 := ExpectedCost(pl, []int{1, 0}, 10)
	if got2 != got {
		t.Fatalf("ExpectedCost depends on list order: %v vs %v", got2, got)
	}
}

func TestExpectedCostBetweenFastestAndWorst(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		pl := platform.RandomHeterogeneous(r, 5, 1, 10, 1e-4, 1e-1, 1, 0, 5)
		procs := []int{0, 1, 2, 3, 4}[:1+r.IntN(5)]
		w := r.Uniform(1, 100)
		ec := ExpectedCost(pl, procs, w)
		fastest, slowest := math.Inf(1), 0.0
		for _, u := range procs {
			ct := pl.ComputeTime(u, w)
			if ct < fastest {
				fastest = ct
			}
			if ct > slowest {
				slowest = ct
			}
		}
		return ec >= fastest-1e-9 && ec <= slowest+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpectedCostCertainFailure(t *testing.T) {
	pl := platform.Platform{
		Procs:       []platform.Processor{{Speed: 1, FailRate: math.Inf(1)}},
		Bandwidth:   1,
		MaxReplicas: 1,
	}
	if got := ExpectedCost(pl, []int{0}, 10); !math.IsInf(got, 1) {
		t.Fatalf("ExpectedCost under certain failure = %v, want +Inf", got)
	}
}

func TestWorstCost(t *testing.T) {
	pl := platform.Platform{
		Procs:       []platform.Processor{{Speed: 4, FailRate: 0}, {Speed: 2, FailRate: 0}},
		Bandwidth:   1,
		MaxReplicas: 2,
	}
	if got := WorstCost(pl, []int{0, 1}, 8); got != 4 {
		t.Fatalf("WorstCost = %v, want 4 (slowest replica)", got)
	}
}

func TestEvaluateHomogeneousHandComputed(t *testing.T) {
	c := testChain()
	pl := homPlatform()
	m := twoStageMapping()
	ev, err := Evaluate(c, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	// Stage 0: W=15, in=0, out=3, 2 replicas. Stage 1: W=7, in=3, out=0.
	// On a homogeneous platform expected == worst case.
	if math.Abs(ev.ExpLatency-ev.WorstLatency) > 1e-12 {
		t.Fatalf("hom: EL %v != WL %v", ev.ExpLatency, ev.WorstLatency)
	}
	if math.Abs(ev.ExpPeriod-ev.WorstPeriod) > 1e-12 {
		t.Fatalf("hom: EP %v != WP %v", ev.ExpPeriod, ev.WorstPeriod)
	}
	// Latency: 15 + 3 + 7 + 0 = 25.
	if math.Abs(ev.WorstLatency-25) > 1e-12 {
		t.Fatalf("WL = %v, want 25", ev.WorstLatency)
	}
	// Period: max(15, 7, comm 3) = 15.
	if math.Abs(ev.WorstPeriod-15) > 1e-12 {
		t.Fatalf("WP = %v, want 15", ev.WorstPeriod)
	}
	// Reliability: stage failures composed in series.
	f0 := StageFailProb(pl, []int{0, 1}, 15, 0, 3)
	f1 := StageFailProb(pl, []int{2}, 7, 3, 0)
	wantFail := failure.Serial(f0, f1)
	if math.Abs(ev.FailProb-wantFail)/wantFail > 1e-9 {
		t.Fatalf("FailProb = %v, want %v", ev.FailProb, wantFail)
	}
	if len(ev.Stages) != 2 {
		t.Fatalf("Stages = %d", len(ev.Stages))
	}
}

func TestEvaluatePeriodDominatedByComm(t *testing.T) {
	// Small works, big communication: the period must be the comm time.
	c := chain.Chain{{Work: 1, Out: 50}, {Work: 1, Out: 0}}
	pl := homPlatform()
	m := Mapping{
		Parts: interval.Partition{{First: 0, Last: 0}, {First: 1, Last: 1}},
		Procs: [][]int{{0}, {1}},
	}
	ev, err := Evaluate(c, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	if ev.WorstPeriod != 50 {
		t.Fatalf("WP = %v, want 50 (comm-bound)", ev.WorstPeriod)
	}
}

func TestEvaluateReplicationImprovesReliability(t *testing.T) {
	c := testChain()
	pl := homPlatform()
	m1 := Mapping{Parts: interval.Single(3), Procs: [][]int{{0}}}
	m2 := Mapping{Parts: interval.Single(3), Procs: [][]int{{0, 1}}}
	m3 := Mapping{Parts: interval.Single(3), Procs: [][]int{{0, 1, 2}}}
	e1, _ := Evaluate(c, pl, m1)
	e2, _ := Evaluate(c, pl, m2)
	e3, _ := Evaluate(c, pl, m3)
	if !(e1.FailProb > e2.FailProb && e2.FailProb > e3.FailProb) {
		t.Fatalf("replication did not improve reliability: %v %v %v",
			e1.FailProb, e2.FailProb, e3.FailProb)
	}
}

func TestEvaluateInvalidMapping(t *testing.T) {
	m := twoStageMapping()
	m.Procs[0] = nil
	if _, err := Evaluate(testChain(), homPlatform(), m); err == nil {
		t.Fatal("Evaluate accepted invalid mapping")
	}
}

func TestMeetsBounds(t *testing.T) {
	ev := Eval{WorstPeriod: 10, WorstLatency: 100}
	cases := []struct {
		p, l float64
		want bool
	}{
		{0, 0, true},    // unconstrained
		{10, 100, true}, // exactly at bounds
		{9, 100, false}, // period too tight
		{10, 99, false}, // latency too tight
		{-1, -1, true},  // negative = unconstrained
	}
	for _, cs := range cases {
		if got := ev.MeetsBounds(cs.p, cs.l); got != cs.want {
			t.Errorf("MeetsBounds(%v,%v) = %v, want %v", cs.p, cs.l, got, cs.want)
		}
	}
}

func TestHeterogeneousExpectedBelowWorst(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.IntN(6)
		c := chain.PaperRandom(r, n)
		pl := platform.PaperHeterogeneous(r, 6)
		m := Mapping{
			Parts: interval.Partition{{First: 0, Last: 0}, {First: 1, Last: n - 1}},
			Procs: [][]int{{0, 1, 2}, {3, 4, 5}},
		}
		ev, err := Evaluate(c, pl, m)
		if err != nil {
			return false
		}
		return ev.ExpLatency <= ev.WorstLatency+1e-9 && ev.ExpPeriod <= ev.WorstPeriod+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := twoStageMapping()
	cl := m.Clone()
	cl.Procs[0][0] = 5
	cl.Parts[0].Last = 0
	if m.Procs[0][0] == 5 || m.Parts[0].Last == 0 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestStrings(t *testing.T) {
	m := twoStageMapping()
	if m.String() == "" {
		t.Fatal("Mapping.String empty")
	}
	ev, err := Evaluate(testChain(), homPlatform(), m)
	if err != nil {
		t.Fatal(err)
	}
	if ev.String() == "" {
		t.Fatal("Eval.String empty")
	}
	if ev.Reliability() <= 0 || ev.Reliability() > 1 {
		t.Fatalf("Reliability = %v", ev.Reliability())
	}
}

// TestInfiniteLinkRateFinite pins the zero-duration rule of
// failure.Prob on a whole evaluation: on a platform whose links fail at
// rate +Inf, a one-interval mapping's end legs carry zero-size messages
// and never fail, so its failure probability is the finite one of its
// compute legs, and a mapping with an interior link fails for certain.
func TestInfiniteLinkRateFinite(t *testing.T) {
	c := testChain()
	pl := platform.Homogeneous(2, 1, 1e-3, 1, math.Inf(1), 2)
	if err := pl.Validate(); err != nil {
		t.Fatal(err)
	}
	single := Mapping{Parts: interval.Single(len(c)), Procs: [][]int{{0, 1}}}
	ev, err := Evaluate(c, pl, single)
	if err != nil {
		t.Fatal(err)
	}
	want := failure.Replicated(failure.Prob(1e-3, 22), 2)
	if math.IsNaN(ev.FailProb) || math.Abs(ev.FailProb-want) > 1e-15 {
		t.Fatalf("one-interval FailProb = %v, want %v", ev.FailProb, want)
	}
	split := Mapping{Parts: interval.FromEnds([]int{0, 2}), Procs: [][]int{{0}, {1}}}
	ev, err = Evaluate(c, pl, split)
	if err != nil {
		t.Fatal(err)
	}
	if ev.FailProb != 1 || !math.IsInf(ev.LogRel, -1) {
		t.Fatalf("split FailProb = %v, LogRel = %v; want 1, -Inf", ev.FailProb, ev.LogRel)
	}
}
