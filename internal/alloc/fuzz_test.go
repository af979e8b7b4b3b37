package alloc

// FuzzGreedyCell is the differential fuzz target of GreedyHet's
// period-bound certificate: the fuzzer picks an instance, a partition
// and an allocation constraint (via seed) and a bound b1, and every
// bound b2 inside the Cell that GreedyHet(b1) reports must replay it —
// the same mapping or error, the same Cell, and an evaluation equal
// float by float to the bit. The bounds checked are the fuzzer's own
// b2 when it lands in the cell, the cell's ends and a point between
// them. The seed corpus under testdata/fuzz/FuzzGreedyCell replays in
// every ordinary `go test` run; CI additionally runs the target under
// -fuzz for a fixed budget.

import (
	"math"
	"reflect"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// cellSetup draws a small instance whose compute times tie often: works
// and speeds are small integers half of the time.
func cellSetup(r *rng.Rand) (chain.Chain, platform.Platform, interval.Partition, []bool) {
	n := 1 + r.IntN(10)
	integral := r.Bernoulli(0.5)
	c := make(chain.Chain, n)
	for i := range c {
		c[i].Work = r.Uniform(1, 20)
		if integral {
			c[i].Work = float64(r.UniformInt(1, 4))
		}
		if i < n-1 {
			c[i].Out = r.Uniform(0, 5)
		}
	}
	p := 1 + r.IntN(9)
	pl := platform.Platform{Bandwidth: r.Uniform(0.5, 4), LinkFailRate: r.Uniform(0, 1e-2), MaxReplicas: 1 + r.IntN(4)}
	for u := 0; u < p; u++ {
		sp := r.Uniform(1, 10)
		if integral {
			sp = float64(r.UniformInt(1, 3))
		}
		pl.Procs = append(pl.Procs, platform.Processor{Speed: sp, FailRate: r.Uniform(0, 1e-2)})
	}
	m := 1 + r.IntN(n)
	var parts interval.Partition
	interval.VisitM(n, m, func(pp interval.Partition) bool {
		parts = pp.Clone()
		return r.Bernoulli(0.6)
	})
	var alive []bool
	if r.Bernoulli(0.3) {
		alive = make([]bool, p)
		for u := range alive {
			alive[u] = !r.Bernoulli(0.2)
		}
	}
	return c, pl, parts, alive
}

// evalFloats lists every float of an evaluation, aggregates and stages.
func evalFloats(ev mapping.Eval) []uint64 {
	fs := []float64{ev.LogRel, ev.FailProb, ev.ExpLatency, ev.WorstLatency, ev.ExpPeriod, ev.WorstPeriod}
	for _, st := range ev.Stages {
		fs = append(fs, st.Work, st.In, st.Out, st.FailProb, st.ExpCost, st.WorstCost)
	}
	bits := make([]uint64, len(fs))
	for i, f := range fs {
		bits[i] = math.Float64bits(f)
	}
	return bits
}

func FuzzGreedyCell(f *testing.F) {
	f.Add(uint64(1), 0.3, 0.31)
	f.Add(uint64(2), 0.0, 0.5)
	f.Add(uint64(3), -1.0, 2.0)
	f.Add(uint64(11), 0.05, 0.05)
	f.Fuzz(func(t *testing.T, seed uint64, b1, b2 float64) {
		c, pl, parts, alive := cellSetup(rng.New(seed))
		// Scale the fuzzer's bounds to the instance: 1 is the chain's
		// whole work on the slowest processor.
		slowest := math.Inf(1)
		for _, pr := range pl.Procs {
			slowest = math.Min(slowest, pr.Speed)
		}
		scale := c.Work(0, len(c)-1) / slowest
		b1, b2 = b1*scale, b2*scale

		m1, cell, err1 := GreedyHet(c, pl, parts, b1, alive)
		if !(cell.Lo > 0) {
			t.Fatalf("bound %v: cell %+v does not start above 0", b1, cell)
		}
		if b1 > 0 && !cell.Contains(b1) {
			t.Fatalf("bound %v lies outside its own cell %+v", b1, cell)
		}
		var ev1 []uint64
		if err1 == nil {
			ev, err := mapping.Evaluate(c, pl, m1)
			if err != nil {
				t.Fatalf("bound %v: invalid mapping: %v", b1, err)
			}
			ev1 = evalFloats(ev)
		}
		probes := []float64{b2, cell.Lo, math.Nextafter(cell.Hi, 0)}
		if !math.IsInf(cell.Hi, 1) {
			probes = append(probes, cell.Lo+(cell.Hi-cell.Lo)/2)
		}
		for _, b := range probes {
			if !cell.Contains(b) {
				continue
			}
			m2, cell2, err2 := GreedyHet(c, pl, parts, b, alive)
			if cell2 != cell {
				t.Fatalf("bound %v in cell %+v of bound %v reports cell %+v", b, cell, b1, cell2)
			}
			if (err1 == nil) != (err2 == nil) || (err1 != nil && err1.Error() != err2.Error()) {
				t.Fatalf("bound %v: error %v, bound %v in its cell: error %v", b1, err1, b, err2)
			}
			if err1 != nil {
				continue
			}
			if !reflect.DeepEqual(m1, m2) {
				t.Fatalf("bound %v: mapping %+v, bound %v in its cell: %+v", b1, m1, b, m2)
			}
			ev, err := mapping.Evaluate(c, pl, m2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ev1, evalFloats(ev)) {
				t.Fatalf("bound %v and bound %v in its cell evaluate differently", b1, b)
			}
		}
	})
}
