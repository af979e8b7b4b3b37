package frontier

import (
	"context"
	"fmt"
	"io"
	"sort"

	"relpipe/internal/chain"
	"relpipe/internal/exact"
	"relpipe/internal/failure"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/progress"
)

// Point is one Pareto-optimal trade-off with enough information to
// materialize its mapping.
type Point struct {
	Period   float64 `json:"period"`
	Latency  float64 `json:"latency"`
	FailProb float64 `json:"failProb"`
	LogRel   float64 `json:"-"`
	Ends     []int   `json:"ends"`
	Counts   []int   `json:"counts"`
}

// Criteria returns the point's Front criteria.
func (p Point) Criteria() (period, latency, logRel float64) {
	return p.Period, p.Latency, p.LogRel
}

// Mapping reconstructs the concrete mapping of the point.
func (p Point) Mapping() mapping.Mapping {
	return mapping.AssignSequential(interval.FromEnds(p.Ends), p.Counts)
}

// Compute returns the full tri-criteria Pareto frontier of the instance,
// sorted by period, then latency, then decreasing log-reliability. The
// platform must be homogeneous (the underlying solver enumerates
// partitions with optimal allocation, which is exact there).
//
// The partition enumeration is sharded on up to par.Degree(parallelism)
// goroutines and keeps the sequential profile order, and so does Front,
// so the frontier is bit-identical for every degree. ctx cancels the
// enumeration (nil = background). report, when non-nil, receives one
// progress unit per stage (profiles enumerated, dominance filter done,
// points sorted — 3 total; see internal/progress), since the point
// count is unknown until the filter lands. Reporting never influences
// the result.
func Compute(ctx context.Context, c chain.Chain, pl platform.Platform, parallelism int, report progress.Func) ([]Point, error) {
	stages := progress.NewCounter(3, report)
	profiles, err := exact.ProfilesPar(ctx, c, pl, parallelism)
	if err != nil {
		return nil, err
	}
	stages.Add(1)
	pareto := Front(profiles, exact.Profile.Criteria)
	stages.Add(1)
	pts := make([]Point, len(pareto))
	for i, pr := range pareto {
		pts[i] = Point{
			Period:   pr.Period,
			Latency:  pr.Latency,
			FailProb: failure.FromLogRel(pr.LogRel),
			LogRel:   pr.LogRel,
			Ends:     pr.Ends,
			Counts:   pr.Counts,
		}
	}
	sortPoints(pts)
	stages.Add(1)
	return pts, nil
}

// Distinct returns the frontier of a candidate list: the points no
// other candidate dominates, keeping only the first of those sharing
// one (period, latency, log-reliability) triple, sorted as Compute
// sorts. search.Frontier builds its approximate frontier with it.
func Distinct(cands []Point) []Point {
	var pts []Point
next:
	for _, p := range Front(cands, Point.Criteria) {
		for _, q := range pts {
			if q.Period == p.Period && q.Latency == p.Latency && q.LogRel == p.LogRel {
				continue next
			}
		}
		pts = append(pts, p)
	}
	sortPoints(pts)
	return pts
}

// sortPoints orders a frontier by period, then latency, then
// decreasing log-reliability.
func sortPoints(pts []Point) {
	sort.Slice(pts, func(a, b int) bool {
		if pts[a].Period != pts[b].Period {
			return pts[a].Period < pts[b].Period
		}
		if pts[a].Latency != pts[b].Latency {
			return pts[a].Latency < pts[b].Latency
		}
		return pts[a].LogRel > pts[b].LogRel
	})
}

// PeriodReliability projects the frontier onto the (period, failure)
// plane with the latency unconstrained: for every distinct achievable
// period, the best achievable failure probability at that period or
// below. The result is strictly improving in both coordinates.
func PeriodReliability(pts []Point) []Point {
	return project(pts, func(p Point) float64 { return p.Period })
}

// LatencyReliability projects onto the (latency, failure) plane with the
// period unconstrained.
func LatencyReliability(pts []Point) []Point {
	return project(pts, func(p Point) float64 { return p.Latency })
}

// project computes the staircase lower envelope of failure probability
// against the chosen coordinate.
func project(pts []Point, key func(Point) float64) []Point {
	if len(pts) == 0 {
		return nil
	}
	sorted := append([]Point(nil), pts...)
	sort.Slice(sorted, func(a, b int) bool {
		ka, kb := key(sorted[a]), key(sorted[b])
		if ka != kb {
			return ka < kb
		}
		return sorted[a].LogRel > sorted[b].LogRel
	})
	var out []Point
	for _, p := range sorted {
		if len(out) > 0 {
			last := out[len(out)-1]
			if key(p) == key(last) || p.LogRel <= last.LogRel {
				continue // not a strict improvement
			}
		}
		out = append(out, p)
	}
	return out
}

// PeriodLatency projects onto the (period, latency) plane subject to a
// reliability floor: the non-dominated (period, latency) pairs among
// points with log-reliability at least minLogRel.
func PeriodLatency(pts []Point, minLogRel float64) []Point {
	var eligible []Point
	for _, p := range pts {
		if p.LogRel >= minLogRel {
			eligible = append(eligible, p)
		}
	}
	sort.Slice(eligible, func(a, b int) bool {
		if eligible[a].Period != eligible[b].Period {
			return eligible[a].Period < eligible[b].Period
		}
		return eligible[a].Latency < eligible[b].Latency
	})
	var out []Point
	for _, p := range eligible {
		if len(out) > 0 && p.Latency >= out[len(out)-1].Latency {
			continue
		}
		out = append(out, p)
	}
	return out
}

// WriteCSV emits the points as "period,latency,failProb,intervals" rows.
func WriteCSV(pts []Point, w io.Writer) error {
	if _, err := fmt.Fprintln(w, "period,latency,failProb,intervals"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%g,%g,%g,%d\n", p.Period, p.Latency, p.FailProb, len(p.Ends)); err != nil {
			return err
		}
	}
	return nil
}
