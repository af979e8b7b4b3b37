package mapping

// Metamorphic properties of the §4 evaluation: transformations of the
// instance with a known, exact effect on the objectives. These catch
// unit mistakes (speed vs time, rate vs probability) that point tests
// with hand-computed oracles can miss.

import (
	"math"
	"testing"
	"testing/quick"

	"relpipe/internal/chain"
	"relpipe/internal/interval"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// Rate regimes of the random platforms. Beside the paper's ranges they
// cover the edges where the evaluator's folds must stay bit-identical
// to the per-replica formulas (oracle_test.go).
const (
	paperRates      = iota // §8-like rates, K = 3
	zeroRates              // LinkFailRate = 0 and every FailRate = 0: every leg is −0
	infRates               // about half the processors fail with certainty (FailRate = +Inf)
	fullReplication        // K = P, an interval may hold every processor
	numRegimes
)

// randomSetup builds a random chain, platform and valid mapping, its
// platform drawn from any rate regime.
func randomSetup(r *rng.Rand) (chain.Chain, platform.Platform, Mapping) {
	return setupIn(r, r.IntN(numRegimes))
}

// finiteSetup is randomSetup without the infRates regime, for the
// metamorphic properties, which compare finite timing objectives
// (Eq. 3 is +Inf on a stage whose replicas all fail with certainty).
func finiteSetup(r *rng.Rand) (chain.Chain, platform.Platform, Mapping) {
	regimes := [...]int{paperRates, zeroRates, fullReplication}
	return setupIn(r, regimes[r.IntN(len(regimes))])
}

// setupIn builds a random chain, platform and valid mapping in one rate
// regime.
func setupIn(r *rng.Rand, regime int) (chain.Chain, platform.Platform, Mapping) {
	n := 2 + r.IntN(6)
	c := chain.PaperRandom(r, n)
	p := n + r.IntN(4)
	pl := platform.RandomHeterogeneous(r, p, 1, 10, 1e-4, 1e-2, 2, 1e-3, 3)
	rounds := 1 // rounds of optional extra replicas
	switch regime {
	case zeroRates:
		pl.LinkFailRate = 0
		for u := range pl.Procs {
			pl.Procs[u].FailRate = 0
		}
	case infRates:
		for u := range pl.Procs {
			if r.Bernoulli(0.5) {
				pl.Procs[u].FailRate = math.Inf(1)
			}
		}
	case fullReplication:
		pl.MaxReplicas = p
		rounds = p
	}
	m := 1 + r.IntN(minInt(n, p/1))
	var parts interval.Partition
	interval.VisitM(n, m, func(pp interval.Partition) bool {
		parts = pp.Clone()
		return r.Bernoulli(0.5)
	})
	counts := make([]int, m)
	used := 0
	for j := range counts {
		counts[j] = 1
		used++
	}
	for k := 0; k < rounds; k++ {
		for j := range counts {
			if used < p && counts[j] < pl.MaxReplicas && r.Bernoulli(0.5) {
				counts[j]++
				used++
			}
		}
	}
	return c, pl, AssignSequential(parts, counts)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMetamorphicSpeedScaling(t *testing.T) {
	// Scaling every speed by α>1 on a communication-free chain divides
	// all timing metrics by α and improves reliability (shorter
	// exposure).
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c, pl, m := finiteSetup(r)
		for i := range c {
			c[i].Out = 0 // communication-free
		}
		alpha := r.Uniform(1.5, 5)
		pl2 := pl
		pl2.Procs = append([]platform.Processor(nil), pl.Procs...)
		for u := range pl2.Procs {
			pl2.Procs[u].Speed *= alpha
		}
		e1, err1 := Evaluate(c, pl, m)
		e2, err2 := Evaluate(c, pl2, m)
		if err1 != nil || err2 != nil {
			return false
		}
		// Worst-case metrics scale exactly. The expected latency does
		// not, and not even monotonically: Eq. (3) conditions on at
		// least one replica succeeding, and shrinking every failure
		// probability can shift that conditional weight slightly toward
		// slower replicas (observed ~0.3% against 1/α scaling on rare
		// instances). What always holds is the worst-case envelope:
		// ec ≤ wc per interval, and wc scales exactly.
		return relClose(e2.WorstLatency*alpha, e1.WorstLatency, 1e-9) &&
			e2.ExpLatency*alpha <= e1.WorstLatency*(1+1e-9) &&
			relClose(e2.WorstPeriod*alpha, e1.WorstPeriod, 1e-9) &&
			e2.FailProb <= e1.FailProb+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMetamorphicRateSpeedInvariance(t *testing.T) {
	// Scaling every failure rate AND every speed by the same α keeps
	// every exposure λ·w/s invariant: reliability must not change
	// (timing shrinks). Same for links via bandwidth.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c, pl, m := finiteSetup(r)
		alpha := r.Uniform(1.5, 5)
		pl2 := pl
		pl2.Procs = append([]platform.Processor(nil), pl.Procs...)
		for u := range pl2.Procs {
			pl2.Procs[u].Speed *= alpha
			pl2.Procs[u].FailRate *= alpha
		}
		pl2.Bandwidth *= alpha
		pl2.LinkFailRate *= alpha
		e1, err1 := Evaluate(c, pl, m)
		e2, err2 := Evaluate(c, pl2, m)
		if err1 != nil || err2 != nil {
			return false
		}
		return relClose(e1.LogRel, e2.LogRel, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMetamorphicBandwidthDataInvariance(t *testing.T) {
	// Scaling all output sizes and the bandwidth by α keeps both comm
	// times and comm reliabilities invariant: the whole Eval must be
	// unchanged.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c, pl, m := finiteSetup(r)
		alpha := r.Uniform(1.5, 5)
		c2 := append(chain.Chain(nil), c...)
		for i := range c2 {
			c2[i].Out *= alpha
		}
		pl2 := pl
		pl2.Bandwidth *= alpha
		e1, err1 := Evaluate(c, pl, m)
		e2, err2 := Evaluate(c2, pl2, m)
		if err1 != nil || err2 != nil {
			return false
		}
		return relClose(e1.LogRel, e2.LogRel, 1e-9) &&
			relClose(e1.WorstLatency, e2.WorstLatency, 1e-9) &&
			relClose(e1.WorstPeriod, e2.WorstPeriod, 1e-9) &&
			relClose(e1.ExpLatency, e2.ExpLatency, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMetamorphicReplicaOrderInvariance(t *testing.T) {
	// The order of the processor list of an interval is irrelevant.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c, pl, m := finiteSetup(r)
		m2 := m.Clone()
		for _, procs := range m2.Procs {
			for i := len(procs) - 1; i > 0; i-- {
				k := r.IntN(i + 1)
				procs[i], procs[k] = procs[k], procs[i]
			}
		}
		e1, err1 := Evaluate(c, pl, m)
		e2, err2 := Evaluate(c, pl, m2)
		if err1 != nil || err2 != nil {
			return false
		}
		return relClose(e1.LogRel, e2.LogRel, 1e-12) &&
			relClose(e1.ExpLatency, e2.ExpLatency, 1e-12) &&
			relClose(e1.WorstLatency, e2.WorstLatency, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMetamorphicTaskSplitInvariance(t *testing.T) {
	// Splitting one task into two halves (zero intermediate output)
	// inside the same interval leaves every objective unchanged.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c, pl, m := finiteSetup(r)
		// Split task t into (w/2, 0) + (w/2, o_t).
		t0 := r.IntN(len(c))
		c2 := make(chain.Chain, 0, len(c)+1)
		c2 = append(c2, c[:t0]...)
		c2 = append(c2, chain.Task{Work: c[t0].Work / 2, Out: 0})
		c2 = append(c2, chain.Task{Work: c[t0].Work / 2, Out: c[t0].Out})
		c2 = append(c2, c[t0+1:]...)
		// Shift interval boundaries past the split point.
		parts2 := make(interval.Partition, len(m.Parts))
		for j, iv := range m.Parts {
			first, last := iv.First, iv.Last
			if first > t0 {
				first++
			}
			if last >= t0 {
				last++
			}
			parts2[j] = interval.Interval{First: first, Last: last}
		}
		m2 := Mapping{Parts: parts2, Procs: m.Procs}
		e1, err1 := Evaluate(c, pl, m)
		e2, err2 := Evaluate(c2, pl, m2)
		if err1 != nil || err2 != nil {
			return false
		}
		return relClose(e1.LogRel, e2.LogRel, 1e-9) &&
			relClose(e1.WorstLatency, e2.WorstLatency, 1e-9) &&
			relClose(e1.WorstPeriod, e2.WorstPeriod, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMetamorphicHigherRatesNeverHelp(t *testing.T) {
	// Scaling every failure rate up can only decrease reliability and
	// leaves all timing untouched.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c, pl, m := finiteSetup(r)
		alpha := r.Uniform(1.5, 10)
		pl2 := pl
		pl2.Procs = append([]platform.Processor(nil), pl.Procs...)
		for u := range pl2.Procs {
			pl2.Procs[u].FailRate *= alpha
		}
		pl2.LinkFailRate *= alpha
		e1, err1 := Evaluate(c, pl, m)
		e2, err2 := Evaluate(c, pl2, m)
		if err1 != nil || err2 != nil {
			return false
		}
		return e2.LogRel <= e1.LogRel+1e-15 &&
			relClose(e1.WorstLatency, e2.WorstLatency, 1e-12) &&
			relClose(e1.WorstPeriod, e2.WorstPeriod, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
