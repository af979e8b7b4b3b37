package mttf

import (
	"errors"
	"math"
)

// validate checks a per-data-set failure probability.
func validate(failProb float64) error {
	if math.IsNaN(failProb) || failProb < 0 || failProb > 1 {
		return errors.New("mttf: failure probability must be in [0,1]")
	}
	return nil
}

// MeanDataSetsToFailure returns the expected number of data sets
// processed up to and including the first failed one (geometric mean
// 1/f); +Inf for a perfectly reliable mapping.
func MeanDataSetsToFailure(failProb float64) (float64, error) {
	if err := validate(failProb); err != nil {
		return 0, err
	}
	if failProb == 0 {
		return math.Inf(1), nil
	}
	return 1 / failProb, nil
}

// MTTF returns the mean time to the first failed data set for a system
// processing one data set per period.
func MTTF(failProb, period float64) (float64, error) {
	if period <= 0 {
		return 0, errors.New("mttf: period must be positive")
	}
	n, err := MeanDataSetsToFailure(failProb)
	if err != nil {
		return 0, err
	}
	return n * period, nil
}

// MissionSurvival returns the probability that every data set of a
// mission of the given duration is processed correctly:
// (1-f)^(mission/period), evaluated in log space so that f = 1e-12 over
// millions of data sets keeps full precision.
func MissionSurvival(failProb, period, mission float64) (float64, error) {
	if period <= 0 || mission < 0 {
		return 0, errors.New("mttf: period must be positive and mission non-negative")
	}
	if err := validate(failProb); err != nil {
		return 0, err
	}
	n := mission / period
	if failProb == 1 {
		if n == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return math.Exp(n * math.Log1p(-failProb)), nil
}

// FailureRatePerHour converts a per-data-set failure probability into
// the per-hour failure rate figure hardware datasheets quote, given the
// period expressed in seconds. For small probabilities this is ≈
// failures/hour; exactly, it is -ln(1-f)·3600/period, the rate of the
// equivalent Poisson process.
func FailureRatePerHour(failProb, periodSeconds float64) (float64, error) {
	if periodSeconds <= 0 {
		return 0, errors.New("mttf: period must be positive")
	}
	if err := validate(failProb); err != nil {
		return 0, err
	}
	if failProb == 1 {
		return math.Inf(1), nil
	}
	return -math.Log1p(-failProb) * 3600 / periodSeconds, nil
}
