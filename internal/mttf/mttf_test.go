package mttf

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"relpipe/internal/rng"
)

func TestMeanDataSetsToFailure(t *testing.T) {
	n, err := MeanDataSetsToFailure(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(n-100) > 1e-9 {
		t.Fatalf("n = %v, want 100", n)
	}
	inf, err := MeanDataSetsToFailure(0)
	if err != nil || !math.IsInf(inf, 1) {
		t.Fatalf("perfect system n = %v err=%v, want +Inf", inf, err)
	}
	if _, err := MeanDataSetsToFailure(1.5); err == nil {
		t.Fatal("accepted probability > 1")
	}
	if _, err := MeanDataSetsToFailure(math.NaN()); err == nil {
		t.Fatal("accepted NaN")
	}
}

func TestMTTF(t *testing.T) {
	v, err := MTTF(1e-6, 36) // paper calibration: one time unit = 36 s
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-3.6e7) > 1 {
		t.Fatalf("MTTF = %v, want 3.6e7", v)
	}
	if _, err := MTTF(0.1, 0); err == nil {
		t.Fatal("accepted zero period")
	}
}

func TestMissionSurvivalHandComputed(t *testing.T) {
	// f = 0.5 per data set, 3 data sets: survival 0.125.
	s, err := MissionSurvival(0.5, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-0.125) > 1e-12 {
		t.Fatalf("survival = %v, want 0.125", s)
	}
}

func TestMissionSurvivalTinyProbability(t *testing.T) {
	// 1e9 data sets at f = 1e-12: survival ≈ e^{-1e-3}; naive
	// (1-f)^n arithmetic would round f away entirely.
	s, err := MissionSurvival(1e-12, 1, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-1e-3)
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("survival = %v, want %v", s, want)
	}
	if s == 1 {
		t.Fatal("tiny failure probability rounded away")
	}
}

func TestMissionSurvivalEdges(t *testing.T) {
	if s, _ := MissionSurvival(1, 1, 5); s != 0 {
		t.Fatalf("certain failure survival = %v", s)
	}
	if s, _ := MissionSurvival(1, 1, 0); s != 1 {
		t.Fatalf("zero mission survival = %v", s)
	}
	if s, _ := MissionSurvival(0, 1, 1e12); s != 1 {
		t.Fatalf("perfect system survival = %v", s)
	}
	if _, err := MissionSurvival(0.5, 1, -1); err == nil {
		t.Fatal("accepted negative mission")
	}
}

func TestExpectedFailures(t *testing.T) {
	v, err := ExpectedFailures(1e-3, 10, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-100) > 1e-9 {
		t.Fatalf("expected failures = %v, want 100", v)
	}
}

func TestFailureRatePerHour(t *testing.T) {
	// f = 1e-6 per data set, one data set per 36 s → 100 data sets per
	// hour → ≈ 1e-4 per hour (the paper's hardware calibration, §8.1).
	v, err := FailureRatePerHour(1e-6, 36)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1e-4)/1e-4 > 1e-3 {
		t.Fatalf("rate = %v, want ~1e-4", v)
	}
	if inf, _ := FailureRatePerHour(1, 36); !math.IsInf(inf, 1) {
		t.Fatal("certain failure must have infinite rate")
	}
}

func TestSurvivalConsistentWithExpectedFailures(t *testing.T) {
	// For small probabilities, -ln(survival) ≈ expected failures. The
	// mission length is capped so expected failures stay below ~600:
	// past E ≈ 745 (the subnormal limit) the survival e^-E underflows
	// float64 to exactly 0 and -ln(0) = +Inf breaks the comparison for
	// purely numerical reasons; past ~708 precision already degrades as
	// e^-E goes subnormal.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		p := math.Pow(10, r.Uniform(-12, -3))
		period := r.Uniform(1, 100)
		mission := r.Uniform(period, period*math.Min(1e6, 600/p))
		s, err1 := MissionSurvival(p, period, mission)
		e, err2 := ExpectedFailures(p, period, mission)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(-math.Log(s)-e) <= 1e-3*e+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSurvivalMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		p1 := r.Float64() * 0.5
		p2 := p1 + r.Float64()*0.4
		s1, _ := MissionSurvival(p1, 1, 100)
		s2, _ := MissionSurvival(p2, 1, 100)
		return s1 >= s2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// ExpectedFailures returns the expected number of failed data sets over
// a mission of the given duration.
func ExpectedFailures(failProb, period, mission float64) (float64, error) {
	if period <= 0 || mission < 0 {
		return 0, errors.New("mttf: period must be positive and mission non-negative")
	}
	if err := validate(failProb); err != nil {
		return 0, err
	}
	return failProb * mission / period, nil
}
