package mapping

// The per-replica formulas of §4, kept as the test oracle of the
// evaluator's hoisted term (scoreTerm and replicaFactor): the stage failure probability
// as the product of ReplicaFailProb over the replicas (Eq. 9's inner
// product) and Eq. (3)'s expected cost computed from scratch. The
// shipped code folds the same quantities with the link legs hoisted and
// the compute leg shared; TestHoistedTermBitIdentical holds it to these
// bit for bit.

import (
	"math"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/failure"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// StageFailProb returns the failure probability of a replicated interval:
// the parallel composition of its replicas' failure probabilities.
func StageFailProb(pl platform.Platform, procs []int, work, in, out float64) float64 {
	f := 1.0
	for _, u := range procs {
		f *= ReplicaFailProb(pl, u, work, in, out)
	}
	return f
}

// ExpectedCost computes ec(I, P_I) of Eq. (3) on the processor set
// procs, which it leaves untouched.
func ExpectedCost(pl platform.Platform, procs []int, work float64) float64 {
	return expectedCostOrdered(pl, append([]int(nil), procs...), work)
}

// expectedCostOrdered is ExpectedCost's core on a scratch copy of the
// processor set, reordered in place by (speed desc, index asc), each
// replica's compute-leg failure probability computed where it is used.
func expectedCostOrdered(pl platform.Platform, order []int, work float64) float64 {
	for i := 1; i < len(order); i++ {
		u := order[i]
		su := pl.Procs[u].Speed
		j := i - 1
		for j >= 0 {
			v := order[j]
			if sv := pl.Procs[v].Speed; sv > su || (sv == su && v < u) {
				break // v sorts before u
			}
			order[j+1] = v
			j--
		}
		order[j+1] = u
	}
	num := 0.0
	prefixFail := 1.0 // Π_{v<u} (1 - r_v)
	for _, u := range order {
		fu := failure.Prob(pl.Procs[u].FailRate, pl.ComputeTime(u, work))
		num += pl.ComputeTime(u, work) * (1 - fu) * prefixFail
		prefixFail *= fu
	}
	denom := 1 - prefixFail // 1 - Π (1 - r_u)
	if denom <= 0 {
		return math.Inf(1)
	}
	return num / denom
}

// oracleEval evaluates m from the per-replica formulas above, folding
// the stages in ascending interval order as Eqs. (5)–(9) define them.
func oracleEval(c chain.Chain, pl platform.Platform, m Mapping) Eval {
	var ev Eval
	commMax := 0.0
	for j := range m.Parts {
		w, in, out := m.Parts.Work(c, j), m.Parts.In(c, j), m.Parts.Out(c, j)
		st := StageEval{
			Work: w, In: in, Out: out,
			FailProb:  StageFailProb(pl, m.Procs[j], w, in, out),
			ExpCost:   ExpectedCost(pl, m.Procs[j], w),
			WorstCost: WorstCost(pl, m.Procs[j], w),
		}
		ev.Stages = append(ev.Stages, st)
		outT := pl.CommTime(out)
		ev.LogRel += failure.LogRel(st.FailProb)
		ev.ExpLatency += st.ExpCost + outT
		ev.WorstLatency += st.WorstCost + outT
		if outT > commMax {
			commMax = outT
		}
		if st.ExpCost > ev.ExpPeriod {
			ev.ExpPeriod = st.ExpCost
		}
		if st.WorstCost > ev.WorstPeriod {
			ev.WorstPeriod = st.WorstCost
		}
	}
	if commMax > ev.ExpPeriod {
		ev.ExpPeriod = commMax
	}
	if commMax > ev.WorstPeriod {
		ev.WorstPeriod = commMax
	}
	ev.FailProb = failure.FromLogRel(ev.LogRel)
	return ev
}

// stageBits collapses a StageEval to the bit patterns of its floats.
func stageBits(st StageEval) [6]uint64 {
	return [6]uint64{
		math.Float64bits(st.Work), math.Float64bits(st.In), math.Float64bits(st.Out),
		math.Float64bits(st.FailProb), math.Float64bits(st.ExpCost), math.Float64bits(st.WorstCost),
	}
}

// termBits collapses an evaluator term to the bit patterns of its
// floats.
func termBits(t term) [3]uint64 {
	return [3]uint64{math.Float64bits(t.logRel), math.Float64bits(t.worstCost), math.Float64bits(t.outTime)}
}

// TestHoistedTermBitIdentical holds EvaluateUnchecked and the
// incremental Evaluator (Init, then a commit/revert walk of Apply over
// all seven neighborhoods) to the per-replica oracle bit for bit, in
// every rate regime: EvaluateUnchecked on every StageEval float and
// every Eval aggregate, the Evaluator on its Score and on each term's
// log-reliability, worst cost and outgoing communication time. The
// zeroRates regime is the signed-zero trap: there every replica's
// failure probability is Serial's −0, which a fold starting from the
// incoming leg instead of 0.0 would turn into +0 (and the term's
// log-reliability from +0 into −0).
func TestHoistedTermBitIdentical(t *testing.T) {
	negZeroSeen := false
	for regime := 0; regime < numRegimes; regime++ {
		for seed := uint64(1); seed <= 50; seed++ {
			r := rng.New(seed*numRegimes + uint64(regime))
			c, pl, m := setupIn(r, regime)
			checkStages := func(what string, got []StageEval, want []StageEval) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("regime %d seed %d %s: %d stages, want %d", regime, seed, what, len(got), len(want))
				}
				for j := range want {
					if stageBits(got[j]) != stageBits(want[j]) {
						t.Fatalf("regime %d seed %d %s stage %d: %+v, oracle %+v", regime, seed, what, j, got[j], want[j])
					}
					negZeroSeen = negZeroSeen || (want[j].FailProb == 0 && math.Signbit(want[j].FailProb))
				}
			}
			checkTerms := func(what string, got []term, want []StageEval) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("regime %d seed %d %s: %d terms, want %d", regime, seed, what, len(got), len(want))
				}
				for j, st := range want {
					w := term{logRel: failure.LogRel(st.FailProb), worstCost: st.WorstCost, outTime: pl.CommTime(st.Out)}
					if termBits(got[j]) != termBits(w) {
						t.Fatalf("regime %d seed %d %s term %d: %+v, oracle %+v", regime, seed, what, j, got[j], w)
					}
				}
			}

			want := oracleEval(c, pl, m)
			got := EvaluateUnchecked(c, pl, m)
			if evalBits(got) != evalBits(want) {
				t.Fatalf("regime %d seed %d: EvaluateUnchecked %+v, oracle %+v", regime, seed, got, want)
			}
			checkStages("EvaluateUnchecked", got.Stages, want.Stages)

			ev := NewEvaluator(c, pl, NewLinks(c, pl))
			if scoreBits(ev.Init(m)) != scoreBits(want.Score()) {
				t.Fatalf("regime %d seed %d: Init diverges from the oracle", regime, seed)
			}
			checkTerms("Init", ev.cur, want.Stages)
			for step := 0; step < 20; step++ {
				nm, touched, ok := neighborMove(pl, m, r.IntN(7), r.IntN(1<<16), r.IntN(1<<16))
				if !ok {
					continue
				}
				want := oracleEval(c, pl, nm)
				if got := ev.Apply(nm, touched); scoreBits(got) != scoreBits(want.Score()) {
					t.Fatalf("regime %d seed %d step %d: Apply %+v, oracle %+v", regime, seed, step, got, want)
				}
				checkTerms("Apply", ev.next, want.Stages)
				if r.Bernoulli(0.5) {
					ev.Commit()
					m = nm
				} else {
					ev.Revert()
				}
			}
		}
	}
	if !negZeroSeen {
		t.Fatal("no stage failure probability of −0 was checked: the zeroRates regime lost its signed-zero case")
	}
}
