// Benchmarks regenerating every figure of the paper's evaluation plus the
// DESIGN.md ablations (A1–A4) and micro-benchmarks of the core kernels.
//
// The per-figure benchmarks run reduced sweeps (10 instances, coarse
// steps) so a full -bench=. pass stays in seconds; cmd/figures runs the
// paper-scale version (100 instances, fine steps). Custom metrics report
// reproduction quality alongside ns/op: solutions found, reliability gaps,
// routing overhead.
package relpipe_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"relpipe"
	"relpipe/internal/chain"
	"relpipe/internal/cost"
	"relpipe/internal/dp"
	"relpipe/internal/exact"
	"relpipe/internal/exact/exactref"
	"relpipe/internal/expfig"
	"relpipe/internal/frontier"
	"relpipe/internal/heur"
	"relpipe/internal/ilp"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
	"relpipe/internal/sched"
	"relpipe/internal/service"
	"relpipe/internal/sim"
)

// benchCfg keeps per-figure benchmarks fast while preserving shapes.
func benchCfg() expfig.Config {
	return expfig.Config{Instances: 10, Tasks: 15, Procs: 10, Seed: 1, Step: 5}
}

// sumY totals one series, a cheap "how many solutions" proxy metric.
func sumY(s expfig.Series) float64 {
	t := 0.0
	for _, v := range s.Y {
		t += v
	}
	return t
}

func benchFigurePair(b *testing.B, fn func(expfig.Config) (expfig.Figure, expfig.Figure), second bool, metric string) {
	b.Helper()
	var fig expfig.Figure
	for i := 0; i < b.N; i++ {
		f1, f2 := fn(benchCfg())
		if second {
			fig = f2
		} else {
			fig = f1
		}
	}
	if len(fig.Series) > 0 && !fig.YLog {
		b.ReportMetric(sumY(fig.Series[0]), metric)
	}
}

func BenchmarkFigure06(b *testing.B) { benchFigurePair(b, expfig.Fig6and7, false, "ilp-solutions") }
func BenchmarkFigure07(b *testing.B) { benchFigurePair(b, expfig.Fig6and7, true, "") }
func BenchmarkFigure08(b *testing.B) { benchFigurePair(b, expfig.Fig8and9, false, "ilp-solutions") }
func BenchmarkFigure09(b *testing.B) { benchFigurePair(b, expfig.Fig8and9, true, "") }
func BenchmarkFigure10(b *testing.B) { benchFigurePair(b, expfig.Fig10and11, false, "ilp-solutions") }
func BenchmarkFigure11(b *testing.B) { benchFigurePair(b, expfig.Fig10and11, true, "") }
func BenchmarkFigure12(b *testing.B) { benchFigurePair(b, expfig.Fig12and13, false, "het-solutions") }
func BenchmarkFigure13(b *testing.B) { benchFigurePair(b, expfig.Fig12and13, true, "") }
func BenchmarkFigure14(b *testing.B) { benchFigurePair(b, expfig.Fig14and15, false, "het-solutions") }
func BenchmarkFigure15(b *testing.B) { benchFigurePair(b, expfig.Fig14and15, true, "") }

// paperInstance is the shared micro-benchmark instance: the paper's
// experimental scale (15 tasks, 10 processors).
func paperInstance() (chain.Chain, platform.Platform) {
	return chain.PaperRandom(rng.New(99), 15), platform.PaperHomogeneous(10)
}

func BenchmarkEvaluateMapping(b *testing.B) {
	c, pl := paperInstance()
	m, _, err := dp.OptimizeReliability(c, pl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mapping.Evaluate(c, pl, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithm1DP(b *testing.B) {
	c, pl := paperInstance()
	for i := 0; i < b.N; i++ {
		if _, _, err := dp.OptimizeReliability(c, pl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithm2DP(b *testing.B) {
	c, pl := paperInstance()
	for i := 0; i < b.N; i++ {
		if _, _, err := dp.OptimizeReliabilityPeriodPar(context.Background(), c, pl, 200, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactSolver(b *testing.B) {
	c, pl := paperInstance()
	for i := 0; i < b.N; i++ {
		if _, _, err := exact.OptimalPar(context.Background(), c, pl, 250, 900, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkILPSolver(b *testing.B) {
	c := chain.PaperRandom(rng.New(5), 8)
	pl := platform.PaperHomogeneous(8)
	for i := 0; i < b.N; i++ {
		model, err := ilp.BuildPaper(c, pl, 250, 800)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := model.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeurPHeterogeneous(b *testing.B) {
	r := rng.New(11)
	c := chain.PaperRandom(r, 15)
	pl := platform.PaperHeterogeneous(r, 10)
	for i := 0; i < b.N; i++ {
		if _, _, err := heur.HeurP(c, pl, heur.Options{Period: 40, Latency: 150}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeurLHeterogeneous(b *testing.B) {
	r := rng.New(11)
	c := chain.PaperRandom(r, 15)
	pl := platform.PaperHeterogeneous(r, 10)
	for i := 0; i < b.N; i++ {
		if _, _, err := heur.HeurL(c, pl, heur.Options{Period: 40, Latency: 150}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulator1kDataSets(b *testing.B) {
	c, pl := paperInstance()
	m, _, err := dp.OptimizeReliability(c, pl)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := mapping.Evaluate(c, pl, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fixed seed: varying it with i would make ns/op depend on b.N
		// (different failure patterns do different amounts of work),
		// breaking comparability of BENCH_*.json numbers across runs.
		_, err := sim.Run(sim.Config{
			Chain: c, Platform: pl, Mapping: m,
			Period: ev.WorstPeriod, DataSets: 1000, Seed: 99,
			InjectFailures: true, Routing: sim.TwoHop,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRouting (A1): cost of the routing operations — the
// reliability lost (or gained) by the routed serial-parallel model of
// Eq. (9) versus the exact unrouted diagram of Fig. 4, on a lossy
// platform where the difference is visible. The ratio of failure
// probabilities is reported as "fail-ratio" (routed/unrouted).
func BenchmarkAblationRouting(b *testing.B) {
	c := chain.PaperRandom(rng.New(3), 9)
	pl := platform.Homogeneous(9, 1, 1e-4, 1, 1e-3, 3)
	parts := interval.Partition{{First: 0, Last: 2}, {First: 3, Last: 5}, {First: 6, Last: 8}}
	m, err := exactref.Greedy(c, pl, parts)
	if err != nil {
		b.Fatal(err)
	}
	var routed, unrouted float64
	for i := 0; i < b.N; i++ {
		ev, err := mapping.Evaluate(c, pl, m)
		if err != nil {
			b.Fatal(err)
		}
		sys, err := mapping.UnroutedFromMapping(c, pl, m)
		if err != nil {
			b.Fatal(err)
		}
		routed, unrouted = ev.FailProb, sys.FailProb()
	}
	b.ReportMetric(routed/unrouted, "fail-ratio")
}

// BenchmarkAblationAlloc (A2): Algo-Alloc greedy versus brute-force
// allocation; "gap" reports the relative log-reliability difference
// (must be ~0, Theorem 4).
func BenchmarkAblationAlloc(b *testing.B) {
	c := chain.PaperRandom(rng.New(13), 6)
	pl := platform.Homogeneous(8, 1, 1e-2, 1, 1e-3, 3)
	parts := interval.Partition{{First: 0, Last: 1}, {First: 2, Last: 3}, {First: 4, Last: 5}}
	var gap float64
	for i := 0; i < b.N; i++ {
		g, err := exactref.Greedy(c, pl, parts)
		if err != nil {
			b.Fatal(err)
		}
		bf, err := exactref.BruteForce(c, pl, parts)
		if err != nil {
			b.Fatal(err)
		}
		ge, _ := mapping.Evaluate(c, pl, g)
		be, _ := mapping.Evaluate(c, pl, bf)
		gap = math.Abs(ge.LogRel-be.LogRel) / math.Abs(be.LogRel)
	}
	b.ReportMetric(gap, "gap")
}

// BenchmarkAblationHeuristicGap (A4): average reliability gap of the best
// heuristic to the exact optimum over random bounded instances, reported
// as "logrel-ratio" (heuristic logRel / optimal logRel; 1 = optimal,
// larger = worse).
func BenchmarkAblationHeuristicGap(b *testing.B) {
	master := rng.New(21)
	type inst struct {
		c  chain.Chain
		pl platform.Platform
	}
	insts := make([]inst, 10)
	for i := range insts {
		insts[i] = inst{chain.PaperRandom(master.Split(), 12), platform.PaperHomogeneous(10)}
	}
	var ratioSum float64
	var count int
	for i := 0; i < b.N; i++ {
		ratioSum, count = 0, 0
		for _, in := range insts {
			_, evOpt, err := exact.OptimalPar(context.Background(), in.c, in.pl, 150, 750, 1)
			if err != nil {
				continue
			}
			res, ok, err := heur.Best(in.c, in.pl, heur.Options{Period: 150, Latency: 750}, nil)
			if err != nil || !ok {
				continue
			}
			ratioSum += res.Ev.LogRel / evOpt.LogRel
			count++
		}
	}
	if count > 0 {
		b.ReportMetric(ratioSum/float64(count), "logrel-ratio")
	}
}

// BenchmarkAblationILPvsExact (A3): wall-clock comparison of the two
// optimal solvers on the same instance.
func BenchmarkAblationILPvsExact(b *testing.B) {
	c := chain.PaperRandom(rng.New(31), 8)
	pl := platform.PaperHomogeneous(8)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := exact.OptimalPar(context.Background(), c, pl, 250, 800, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ilp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			model, err := ilp.BuildPaper(c, pl, 250, 800)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := model.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationHetGap (A5, beyond the paper): reliability gap of the
// best heuristic to the exhaustive heterogeneous optimum on small
// instances — the paper leaves heterogeneous approximability open (§9);
// this measures it empirically. Reported as "logrel-ratio" (1 = optimal).
func BenchmarkAblationHetGap(b *testing.B) {
	master := rng.New(51)
	type inst struct {
		c  chain.Chain
		pl platform.Platform
	}
	insts := make([]inst, 6)
	for i := range insts {
		insts[i] = inst{
			chain.PaperRandom(master.Split(), 6),
			platform.RandomHeterogeneous(master.Split(), 6, 1, 10, 1e-3, 1e-1, 1, 1e-3, 3),
		}
	}
	var ratioSum float64
	var count int
	for i := 0; i < b.N; i++ {
		ratioSum, count = 0, 0
		for _, in := range insts {
			_, evOpt, err := exactref.OptimalHetPar(context.Background(), in.c, in.pl, 0, 0, 1)
			if err != nil {
				continue
			}
			res, ok, err := heur.Best(in.c, in.pl, heur.Options{}, nil)
			if err != nil || !ok {
				continue
			}
			ratioSum += res.Ev.LogRel / evOpt.LogRel
			count++
		}
	}
	if count > 0 {
		b.ReportMetric(ratioSum/float64(count), "logrel-ratio")
	}
}

// BenchmarkFrontier measures full Pareto-frontier enumeration at paper
// scale; "points" reports the frontier size.
func BenchmarkFrontier(b *testing.B) {
	c, pl := paperInstance()
	var n int
	for i := 0; i < b.N; i++ {
		pts, err := frontier.Compute(context.Background(), c, pl, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		n = len(pts)
	}
	b.ReportMetric(float64(n), "points")
}

// BenchmarkCostSolver measures the §9 resource-cost extension.
func BenchmarkCostSolver(b *testing.B) {
	c, pl := paperInstance()
	costs := make([]float64, pl.P())
	r := rng.New(61)
	for i := range costs {
		costs[i] = r.Uniform(1, 10)
	}
	// A floor requiring some replication.
	_, ev, err := dp.OptimizeReliability(c, pl)
	if err != nil {
		b.Fatal(err)
	}
	floor := ev.LogRel * 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cost.Minimize(c, pl, costs, floor, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleBuild measures closed-form timetable construction.
func BenchmarkScheduleBuild(b *testing.B) {
	c, pl := paperInstance()
	m, ev, err := dp.OptimizeReliability(c, pl)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Build(c, pl, m, ev.WorstPeriod); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceOptimize measures the solver service's /v1/optimize
// hot path over real HTTP: "uncached" disables the result cache so every
// request runs a full solve; "cached" repeats one request so all but the
// first are LRU hits. The cached/uncached ratio is the serving headroom
// the cache buys; future PRs track both.
func BenchmarkServiceOptimize(b *testing.B) {
	body, err := json.Marshal(relpipe.OptimizeRequest{
		Instance: relpipe.Instance{
			Chain:    chain.PaperRandom(rng.New(41), 12),
			Platform: platform.PaperHomogeneous(10),
		},
		Bounds: relpipe.Bounds{Period: 250, Latency: 900},
		Method: "exact",
	})
	if err != nil {
		b.Fatal(err)
	}
	post := func(b *testing.B, url string) {
		b.Helper()
		resp, err := http.Post(url+"/v1/optimize", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.Run("uncached", func(b *testing.B) {
		s := service.NewServer(service.Options{CacheSize: -1})
		ts := httptest.NewServer(s)
		defer func() { ts.Close(); s.Close() }()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.URL)
		}
	})
	b.Run("cached", func(b *testing.B) {
		s := service.NewServer(service.Options{})
		ts := httptest.NewServer(s)
		defer func() { ts.Close(); s.Close() }()
		post(b, ts.URL) // warm the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.URL)
		}
		var exp bytes.Buffer
		s.Metrics().Registry().WritePrometheus(&exp)
		hits := 0
		for _, line := range strings.Split(exp.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "relpipe_cache_hits_total "); ok {
				hits, _ = strconv.Atoi(v)
			}
		}
		if hits < b.N {
			b.Fatalf("relpipe_cache_hits_total = %d, want ≥ %d", hits, b.N)
		}
	})
}

// BenchmarkOptimizeAuto exercises the public facade end to end.
func BenchmarkOptimizeAuto(b *testing.B) {
	inst := relpipe.Instance{
		Chain:    chain.PaperRandom(rng.New(41), 15),
		Platform: platform.PaperHomogeneous(10),
	}
	for i := 0; i < b.N; i++ {
		if _, err := relpipe.Optimize(inst, relpipe.Bounds{Period: 250, Latency: 900}, relpipe.Auto); err != nil {
			b.Fatal(err)
		}
	}
}
