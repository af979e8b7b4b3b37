package expfig

import (
	"fmt"
	"math"

	"relpipe/internal/chain"
	"relpipe/internal/dp"
	"relpipe/internal/exact"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// HeuristicGap quantifies the A4 ablation as a figure (beyond the
// paper): the mean optimality gap of each heuristic against the exact
// optimum across the period sweep of Figure 6 (L = 750). The gap is the
// log-reliability ratio heuristic/optimal — 1 means optimal, 2 means the
// heuristic's failure probability is roughly the square root... i.e.
// twice the log magnitude — averaged over the instances where both the
// heuristic and the optimum found a solution.
func HeuristicGap(cfg Config) Figure {
	cfg = cfg.withDefaults()
	insts := buildHom(cfg)
	xs := sweepValues(50, 500, 10*float64(cfg.Step))
	const latency = 750
	labels := []string{"Heur-L", "Heur-P"}
	ys := make([][]float64, 2)
	for s := range ys {
		ys[s] = make([]float64, len(xs))
	}
	for xi, P := range xs {
		var sumL, sumP float64
		var nL, nP int
		for _, in := range insts {
			iOpt := exact.BestUnder(in.optimal, P, latency)
			if iOpt < 0 {
				continue
			}
			opt := in.optimal[iOpt].LogRel
			if opt == 0 {
				continue
			}
			if lrL, ok := in.heuristic(true, P, latency); ok {
				sumL += lrL / opt
				nL++
			}
			if lrP, ok := in.heuristic(false, P, latency); ok {
				sumP += lrP / opt
				nP++
			}
		}
		ys[0][xi] = math.NaN()
		ys[1][xi] = math.NaN()
		if nL > 0 {
			ys[0][xi] = sumL / float64(nL)
		}
		if nP > 0 {
			ys[1][xi] = sumP / float64(nP)
		}
	}
	f := Figure{
		ID:     "figA4",
		Title:  "Heuristic optimality gap for L=750 (log-reliability ratio, 1 = optimal)",
		XLabel: "bound on period",
		YLabel: "logRel(heuristic)/logRel(optimal)",
		YLog:   true,
	}
	for s := range labels {
		f.Series = append(f.Series, Series{Label: labels[s], X: xs, Y: ys[s]})
	}
	return f
}

// RoutingOverhead quantifies the A1 ablation as a figure (the paper's
// future-work question, §9): how much reliability the routing operations
// cost, as a function of the link failure rate. The mapping structure is
// held fixed across rates (a balanced Heur-P partition with a uniform
// replication degree) so that the ratio isolates the two-hops-versus-one
// effect — re-optimizing per rate would let Algorithm 1 collapse to a
// single interval on lossy links and hide the overhead entirely. The y
// value is the mean ratio of the routed (Eq. 9) failure probability to
// the exact unrouted (Fig. 4) failure probability: 1 means routing is
// free, larger means routing hurts.
func RoutingOverhead(cfg Config) Figure {
	cfg = cfg.withDefaults()
	master := rng.New(cfg.Seed)
	chains := make([]chain.Chain, cfg.Instances)
	for i := range chains {
		chains[i] = chain.PaperRandom(master.Split(), cfg.Tasks)
	}
	var rates []float64
	for e := -7.0; e <= -2.01; e += 0.5 * float64(cfg.Step) {
		rates = append(rates, math.Pow(10, e))
	}
	// Two fixed structures fitting the paper's 10 processors:
	// 5 intervals × 2 replicas and 3 intervals × 3 replicas.
	type structure struct{ m, replicas int }
	structures := []structure{{5, 2}, {3, 3}}
	f := Figure{
		ID:     "figA1",
		Title:  "Routing-operation reliability cost vs link failure rate",
		XLabel: "link failure rate λℓ (log10)",
		YLabel: "fail(routed)/fail(unrouted)",
		YLog:   true,
	}
	for _, st := range structures {
		if st.m*st.replicas > cfg.Procs {
			continue
		}
		ys := make([]float64, len(rates))
		xsLog := make([]float64, len(rates))
		for ri, rate := range rates {
			xsLog[ri] = math.Log10(rate)
			var sum float64
			var n int
			for _, c := range chains {
				pl := platform.Homogeneous(cfg.Procs, 1, 1e-8, 1, rate, st.replicas)
				parts, err := dp.HeurPPartition(c, st.m, 1, 1)
				if err != nil {
					continue
				}
				counts := make([]int, st.m)
				for j := range counts {
					counts[j] = st.replicas
				}
				m := mapping.AssignSequential(parts, counts)
				ev, err := mapping.Evaluate(c, pl, m)
				if err != nil {
					continue
				}
				sys, err := mapping.UnroutedFromMapping(c, pl, m)
				if err != nil {
					continue
				}
				routed, unrouted := ev.FailProb, sys.FailProb()
				if unrouted <= 0 {
					continue
				}
				sum += routed / unrouted
				n++
			}
			if n > 0 {
				ys[ri] = sum / float64(n)
			} else {
				ys[ri] = math.NaN()
			}
		}
		f.Series = append(f.Series, Series{
			Label: fmt.Sprintf("%d intervals × %d replicas", st.m, st.replicas),
			X:     xsLog, Y: ys,
		})
	}
	return f
}
