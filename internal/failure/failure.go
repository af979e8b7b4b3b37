package failure

import "math"

// Prob computes the probability that a component with failure rate lambda
// (per time unit) fails at least once during duration d, i.e. 1 - e^{-λd},
// evaluated as -expm1(-λd) to preserve accuracy for small λd.
// A zero-duration exposure never fails, even at an infinite rate, where
// λd itself would be the NaN of +Inf·0 (a chain's end legs carry
// zero-size messages, so every mapping on a platform whose links fail
// at rate +Inf meets this case). It panics on negative lambda or d.
func Prob(lambda, d float64) float64 {
	if lambda < 0 || d < 0 {
		panic("failure: negative rate or duration")
	}
	if d == 0 && math.IsInf(lambda, 1) {
		return 0
	}
	return -math.Expm1(-lambda * d)
}

// LogRel returns log(1-f), the log-reliability of a component with
// failure probability f. LogRel(0) = 0; LogRel(1) = -Inf.
func LogRel(f float64) float64 { return math.Log1p(-f) }

// FromLogRel converts a log-reliability back to a failure probability.
func FromLogRel(logR float64) float64 { return -math.Expm1(logR) }

// Serial returns the failure probability of a series composition: the
// system fails if any component fails. Computed as 1 - Π(1-f_i) in log
// space for accuracy.
func Serial(fs ...float64) float64 {
	s := 0.0
	for _, f := range fs {
		s += math.Log1p(-f)
	}
	return -math.Expm1(s)
}

// Replicated returns the failure probability of q identical replicas in
// parallel, f^q, guarding the q = 0 edge case (no replicas: certain
// failure).
func Replicated(f float64, q int) float64 {
	if q <= 0 {
		return 1
	}
	p := 1.0
	for i := 0; i < q; i++ {
		p *= f
	}
	return p
}
