package sched

import (
	"errors"
	"fmt"
	"math"

	"relpipe/internal/chain"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
)

// Window is one scheduled occupation of a resource for data set 0; the
// occurrence for data set d is the window shifted by d·Period.
type Window struct {
	Start, End float64
}

// Table is the steady-state timetable of a mapping run at a fixed
// injection period (one-hop boundary accounting, matching Eqs. 5–8).
type Table struct {
	Period float64
	// Arrival[j] is when data set 0 becomes available to stage j's
	// replicas (0 for the first stage).
	Arrival []float64
	// Compute[j][i] is the compute window of data set 0 on replica i of
	// stage j.
	Compute [][]Window
	// Send[j] is the window of the boundary-j output communication of
	// data set 0 (zero-width for the last stage).
	Send []Window
	// Latency is the completion time of data set 0 (= the §4 latency of
	// the schedule); every data set d completes at Latency + d·Period.
	Latency float64

	procOf [][]int
}

// Build computes the timetable of m on pl at the given injection period.
// It fails if the period is below the mapping's worst-case period (the
// schedule would not be periodic: queues build up).
func Build(c chain.Chain, pl platform.Platform, m mapping.Mapping, period float64) (*Table, error) {
	ev, err := mapping.Evaluate(c, pl, m)
	if err != nil {
		return nil, err
	}
	if period <= 0 {
		return nil, errors.New("sched: period must be positive")
	}
	if period < ev.WorstPeriod-1e-12 {
		return nil, fmt.Errorf("sched: period %g below the mapping's worst-case period %g", period, ev.WorstPeriod)
	}
	nStages := len(m.Parts)
	t := &Table{
		Period:  period,
		Arrival: make([]float64, nStages),
		Compute: make([][]Window, nStages),
		Send:    make([]Window, nStages),
		procOf:  make([][]int, nStages),
	}
	arrival := 0.0
	for j := 0; j < nStages; j++ {
		t.Arrival[j] = arrival
		work := m.Parts.Work(c, j)
		t.Compute[j] = make([]Window, len(m.Procs[j]))
		t.procOf[j] = append([]int(nil), m.Procs[j]...)
		fastest := math.Inf(1)
		for i, u := range m.Procs[j] {
			d := pl.ComputeTime(u, work)
			t.Compute[j][i] = Window{Start: arrival, End: arrival + d}
			if d < fastest {
				fastest = d
			}
		}
		// The boundary is crossed as soon as the fastest replica
		// finishes (failure-free: the first arrival wins the race).
		out := pl.CommTime(m.Parts.Out(c, j))
		t.Send[j] = Window{Start: arrival + fastest, End: arrival + fastest + out}
		arrival = t.Send[j].End
	}
	t.Latency = arrival // last stage has out = 0: End = fastest finish
	return t, nil
}

// Utilization returns the busy fraction of every enrolled processor.
func (t *Table) Utilization() map[int]float64 {
	out := map[int]float64{}
	for j, ws := range t.Compute {
		for i, w := range ws {
			out[t.procOf[j][i]] += (w.End - w.Start) / t.Period
		}
	}
	return out
}

// Validate checks the structural soundness of the timetable: windows
// ordered along the chain, per-processor windows of consecutive data
// sets non-overlapping, and the per-boundary communication windows
// non-overlapping across consecutive data sets.
func (t *Table) Validate() error {
	for j, ws := range t.Compute {
		for i, w := range ws {
			if w.End < w.Start {
				return fmt.Errorf("sched: stage %d replica %d has negative window", j, i)
			}
			if w.Start < t.Arrival[j]-1e-12 {
				return fmt.Errorf("sched: stage %d replica %d starts before its input arrives", j, i)
			}
			// The next data set must not need the processor before
			// this one releases it.
			if w.End-w.Start > t.Period+1e-12 {
				return fmt.Errorf("sched: stage %d replica %d busy longer than the period", j, i)
			}
		}
	}
	for j, s := range t.Send {
		if s.End-s.Start > t.Period+1e-12 {
			return fmt.Errorf("sched: boundary %d communication longer than the period", j)
		}
	}
	return nil
}

// String renders a compact listing of the timetable.
func (t *Table) String() string {
	s := fmt.Sprintf("schedule{P=%.4g L=%.4g\n", t.Period, t.Latency)
	for j, ws := range t.Compute {
		s += fmt.Sprintf("  stage %d: arrive %.4g;", j, t.Arrival[j])
		for i, w := range ws {
			s += fmt.Sprintf(" P%d[%.4g,%.4g]", t.procOf[j][i], w.Start, w.End)
		}
		if t.Send[j].End > t.Send[j].Start {
			s += fmt.Sprintf(" send[%.4g,%.4g]", t.Send[j].Start, t.Send[j].End)
		}
		s += "\n"
	}
	return s + "}"
}
