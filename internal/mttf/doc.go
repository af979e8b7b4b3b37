// Package mttf turns the paper's per-data-set reliability (Eq. 9) into
// the mission-level dependability quantities certification arguments are
// written in (the automotive context of §1): mean time to failure,
// survival probability over a mission, and the per-hour failure rate.
// Data sets are processed every period; failures of distinct data sets
// are independent under the transient ("hot") failure model of §2.4, so
// the number of data sets until the first failure is geometric.
//
// Key entry points: MTTF, MissionSurvival, MeanDataSetsToFailure and
// FailureRatePerHour — all closed forms, exact and
// deterministic (the survival computation works in log space to stay
// finite past ~708 expected failures).
package mttf
