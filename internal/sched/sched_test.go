package sched

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"relpipe/internal/alloc"
	"relpipe/internal/chain"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
	"relpipe/internal/sim"
)

func pipeline() (chain.Chain, platform.Platform, mapping.Mapping) {
	c := chain.Chain{{Work: 10, Out: 2}, {Work: 6, Out: 4}, {Work: 8, Out: 0}}
	pl := platform.Homogeneous(3, 1, 0, 1, 0, 3)
	m := mapping.Mapping{Parts: interval.FromEnds([]int{0, 1, 2}), Procs: [][]int{{0}, {1}, {2}}}
	return c, pl, m
}

func TestBuildHandComputed(t *testing.T) {
	c, pl, m := pipeline()
	tab, err := Build(c, pl, m, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Stage arrivals: 0, 10+2=12, 12+6+4=22; latency 22+8=30.
	want := []float64{0, 12, 22}
	for j, a := range tab.Arrival {
		if math.Abs(a-want[j]) > 1e-12 {
			t.Fatalf("Arrival[%d] = %v, want %v", j, a, want[j])
		}
	}
	if math.Abs(tab.Latency-30) > 1e-12 {
		t.Fatalf("Latency = %v, want 30", tab.Latency)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	// Data set 3 completes at 30 + 3·10.
	if math.Abs(tab.CompletionOf(3)-60) > 1e-12 {
		t.Fatalf("CompletionOf(3) = %v", tab.CompletionOf(3))
	}
	if math.Abs(tab.StartOf(1, 0, 2)-32) > 1e-12 {
		t.Fatalf("StartOf(1,0,2) = %v, want 12+2·10", tab.StartOf(1, 0, 2))
	}
}

func TestBuildRejectsOverload(t *testing.T) {
	c, pl, m := pipeline()
	if _, err := Build(c, pl, m, 9.99); err == nil {
		t.Fatal("accepted period below WP=10")
	}
	if _, err := Build(c, pl, m, 0); err == nil {
		t.Fatal("accepted zero period")
	}
}

func TestLatencyMatchesEvaluate(t *testing.T) {
	// The closed-form latency equals EL of Eq. (5) with zero failure
	// rates (fastest replica wins every race).
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(8)
		c := chain.PaperRandom(r, n)
		pl := platform.RandomHeterogeneous(r, n+2, 1, 10, 0, 0, 1, 0, 3)
		m := 1 + r.IntN(minInt(n, pl.P()))
		var parts interval.Partition
		interval.VisitM(n, m, func(pp interval.Partition) bool {
			parts = pp.Clone()
			return r.Bernoulli(0.5)
		})
		mp, _, err := alloc.GreedyHet(c, pl, parts, 0, nil)
		if err != nil {
			return true
		}
		ev, err := mapping.Evaluate(c, pl, mp)
		if err != nil {
			return false
		}
		tab, err := Build(c, pl, mp, ev.WorstPeriod)
		if err != nil {
			return false
		}
		return math.Abs(tab.Latency-ev.ExpLatency) <= 1e-9*(1+ev.ExpLatency)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTableMatchesSimulator(t *testing.T) {
	// The closed form and the discrete-event simulator must agree on
	// every completion in failure-free runs.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(6)
		c := chain.PaperRandom(r, n)
		pl := platform.RandomHeterogeneous(r, n+2, 1, 10, 0, 0, 1, 0, 3)
		m := 1 + r.IntN(minInt(n, pl.P()))
		var parts interval.Partition
		interval.VisitM(n, m, func(pp interval.Partition) bool {
			parts = pp.Clone()
			return r.Bernoulli(0.5)
		})
		mp, _, err := alloc.GreedyHet(c, pl, parts, 0, nil)
		if err != nil {
			return true
		}
		ev, err := mapping.Evaluate(c, pl, mp)
		if err != nil {
			return false
		}
		period := ev.WorstPeriod * (1 + r.Float64())
		tab, err := Build(c, pl, mp, period)
		if err != nil {
			return false
		}
		const datasets = 20
		res, err := sim.Run(sim.Config{
			Chain: c, Platform: pl, Mapping: mp,
			Period: period, DataSets: datasets, Routing: sim.OneHop,
		})
		if err != nil || res.Successes != datasets {
			return false
		}
		for d := 0; d < datasets; d++ {
			if math.Abs(res.Completions[d]-tab.CompletionOf(d)) > 1e-9*(1+tab.CompletionOf(d)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilization(t *testing.T) {
	c, pl, m := pipeline()
	tab, err := Build(c, pl, m, 20)
	if err != nil {
		t.Fatal(err)
	}
	u := tab.Utilization()
	if math.Abs(u[0]-0.5) > 1e-12 { // 10/20
		t.Fatalf("util P0 = %v, want 0.5", u[0])
	}
	if math.Abs(u[2]-0.4) > 1e-12 { // 8/20
		t.Fatalf("util P2 = %v, want 0.4", u[2])
	}
}

func TestString(t *testing.T) {
	c, pl, m := pipeline()
	tab, err := Build(c, pl, m, 10)
	if err != nil {
		t.Fatal(err)
	}
	s := tab.String()
	if !strings.Contains(s, "stage 0") || !strings.Contains(s, "send") {
		t.Fatalf("String = %q", s)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Shift returns the window of data set d.
func (w Window) Shift(d int, period float64) Window {
	return Window{Start: w.Start + float64(d)*period, End: w.End + float64(d)*period}
}

// StartOf returns the compute start of data set d on replica i of stage
// j.
func (t *Table) StartOf(j, i, d int) float64 {
	return t.Compute[j][i].Shift(d, t.Period).Start
}

// CompletionOf returns the completion time of data set d.
func (t *Table) CompletionOf(d int) float64 {
	return t.Latency + float64(d)*t.Period
}
