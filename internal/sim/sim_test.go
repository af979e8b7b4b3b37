package sim

import (
	"context"
	"math"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/failure"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
)

// pipeline3 returns a 3-stage single-replica pipeline on a failure-free
// platform for timing tests.
func pipeline3() (chain.Chain, platform.Platform, mapping.Mapping) {
	c := chain.Chain{{Work: 10, Out: 2}, {Work: 6, Out: 4}, {Work: 8, Out: 0}}
	pl := platform.Homogeneous(3, 1, 0, 1, 0, 3)
	m := mapping.Mapping{
		Parts: interval.FromEnds([]int{0, 1, 2}),
		Procs: [][]int{{0}, {1}, {2}},
	}
	return c, pl, m
}

func TestSimMatchesAnalyticTiming(t *testing.T) {
	c, pl, m := pipeline3()
	ev, err := mapping.Evaluate(c, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Chain: c, Platform: pl, Mapping: m,
		Period: ev.WorstPeriod, DataSets: 50, Routing: OneHop, WarmUp: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Successes != 50 {
		t.Fatalf("successes = %d, want 50 (failure-free)", res.Successes)
	}
	// Eq. (7): WL = (10+2) + (6+4) + (8+0) = 30.
	if math.Abs(res.Latencies[0]-ev.WorstLatency) > 1e-9 {
		t.Fatalf("first latency = %v, want WL = %v", res.Latencies[0], ev.WorstLatency)
	}
	// With P = WP the pipeline keeps up: all latencies equal.
	for d, l := range res.Latencies {
		if math.Abs(l-ev.WorstLatency) > 1e-9 {
			t.Fatalf("latency[%d] = %v, want %v", d, l, ev.WorstLatency)
		}
	}
	// Completions every P.
	if math.Abs(res.SteadyPeriod-ev.WorstPeriod) > 1e-9 {
		t.Fatalf("steady period = %v, want %v", res.SteadyPeriod, ev.WorstPeriod)
	}
}

func TestSimSaturatedThroughputIsWorstPeriod(t *testing.T) {
	// Inject far faster than the pipeline can drain: the steady-state
	// output period must converge to WP (Eq. 6/8), here the compute
	// bottleneck 10.
	c, pl, m := pipeline3()
	ev, _ := mapping.Evaluate(c, pl, m)
	res, err := Run(Config{
		Chain: c, Platform: pl, Mapping: m,
		Period: ev.WorstPeriod / 20, DataSets: 300, Routing: OneHop, WarmUp: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.SteadyPeriod-ev.WorstPeriod) > 1e-6 {
		t.Fatalf("saturated steady period = %v, want WP = %v", res.SteadyPeriod, ev.WorstPeriod)
	}
	// Queueing: latencies must grow monotonically under overload.
	if res.Latencies[len(res.Latencies)-1] <= res.Latencies[0] {
		t.Fatal("overloaded pipeline shows no queue growth")
	}
}

func TestSimCommBoundThroughput(t *testing.T) {
	// A boundary communication (o/b = 12) dominates every compute time:
	// the saturated output period must equal it.
	c := chain.Chain{{Work: 5, Out: 12}, {Work: 5, Out: 0}}
	pl := platform.Homogeneous(2, 1, 0, 1, 0, 3)
	m := mapping.Mapping{Parts: interval.FromEnds([]int{0, 1}), Procs: [][]int{{0}, {1}}}
	ev, _ := mapping.Evaluate(c, pl, m)
	if ev.WorstPeriod != 12 {
		t.Fatalf("WP = %v, want comm-bound 12", ev.WorstPeriod)
	}
	res, err := Run(Config{
		Chain: c, Platform: pl, Mapping: m,
		Period: 1, DataSets: 200, Routing: OneHop, WarmUp: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.SteadyPeriod-12) > 1e-6 {
		t.Fatalf("steady period = %v, want 12", res.SteadyPeriod)
	}
}

func TestSimFastestReplicaWinsLatency(t *testing.T) {
	// Replicated stage on processors of speeds 4 and 1: the first
	// data set's latency follows the fastest replica (Eq. 3 as f→0).
	c := chain.Chain{{Work: 8, Out: 0}}
	pl := platform.Platform{
		Procs:        []platform.Processor{{Speed: 1, FailRate: 0}, {Speed: 4, FailRate: 0}},
		Bandwidth:    1,
		LinkFailRate: 0,
		MaxReplicas:  2,
	}
	m := mapping.Mapping{Parts: interval.Single(1), Procs: [][]int{{0, 1}}}
	res, err := Run(Config{
		Chain: c, Platform: pl, Mapping: m, Period: 10, DataSets: 5, Routing: OneHop,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Latencies[0]-2) > 1e-9 { // 8/4
		t.Fatalf("latency = %v, want 2 (fastest replica)", res.Latencies[0])
	}
}

func TestSimTwoHopAddsLatency(t *testing.T) {
	c, pl, m := pipeline3()
	one, err := Run(Config{Chain: c, Platform: pl, Mapping: m, Period: 100, DataSets: 3, Routing: OneHop})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(Config{Chain: c, Platform: pl, Mapping: m, Period: 100, DataSets: 3, Routing: TwoHop})
	if err != nil {
		t.Fatal(err)
	}
	// TwoHop charges each boundary twice: +2 and +4 here.
	if math.Abs((two.Latencies[0]-one.Latencies[0])-6) > 1e-9 {
		t.Fatalf("two-hop extra latency = %v, want 6", two.Latencies[0]-one.Latencies[0])
	}
}

// mcSetup builds a lossy replicated mapping for Monte-Carlo tests: rates
// large enough that failures are common.
func mcSetup() (chain.Chain, platform.Platform, mapping.Mapping) {
	c := chain.Chain{{Work: 10, Out: 5}, {Work: 14, Out: 3}, {Work: 8, Out: 0}}
	pl := platform.Homogeneous(6, 1, 2e-2, 1, 1e-2, 2)
	m := mapping.Mapping{
		Parts: interval.FromEnds([]int{0, 1, 2}),
		Procs: [][]int{{0, 1}, {2, 3}, {4, 5}},
	}
	return c, pl, m
}

func TestSimMatchesAnalyticReliability(t *testing.T) {
	// V1: the TwoHop success rate converges to Eq. (9).
	c, pl, m := mcSetup()
	ev, err := mapping.Evaluate(c, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40000
	res, err := Run(Config{
		Chain: c, Platform: pl, Mapping: m,
		Period: 20, DataSets: n, Seed: 12345, InjectFailures: true, Routing: TwoHop,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ev.FailProb
	got := res.FailureRate()
	sigma := math.Sqrt(want * (1 - want) / n)
	if math.Abs(got-want) > 5*sigma {
		t.Fatalf("MC failure rate %v vs Eq.(9) %v: off by more than 5σ (σ=%v)", got, want, sigma)
	}
}

// analyticFailProbOneHop returns the per-data-set failure probability the
// OneHop simulator converges to: like Eq. (9) but with a single
// communication factor per boundary (sender side only).
func analyticFailProbOneHop(c chain.Chain, pl platform.Platform, m mapping.Mapping) float64 {
	logRel := 0.0
	for j := range m.Parts {
		w := m.Parts.Work(c, j)
		out := m.Parts.Out(c, j)
		fOut := failure.Prob(pl.LinkFailRate, pl.CommTime(out))
		stage := 1.0
		for _, u := range m.Procs[j] {
			fComp := failure.Prob(pl.Procs[u].FailRate, pl.ComputeTime(u, w))
			stage *= failure.Serial(fComp, fOut)
		}
		logRel += failure.LogRel(stage)
	}
	return failure.FromLogRel(logRel)
}

func TestSimMatchesAnalyticReliabilityOneHop(t *testing.T) {
	c, pl, m := mcSetup()
	want := analyticFailProbOneHop(c, pl, m)
	const n = 40000
	res, err := Run(Config{
		Chain: c, Platform: pl, Mapping: m,
		Period: 20, DataSets: n, Seed: 777, InjectFailures: true, Routing: OneHop,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := res.FailureRate()
	sigma := math.Sqrt(want * (1 - want) / n)
	if math.Abs(got-want) > 5*sigma {
		t.Fatalf("MC one-hop failure rate %v vs analytic %v: off by more than 5σ", got, want)
	}
}

func TestReplicationReducesObservedFailures(t *testing.T) {
	c := chain.Chain{{Work: 20, Out: 0}}
	pl := platform.Homogeneous(3, 1, 2e-2, 1, 0, 3)
	single := mapping.Mapping{Parts: interval.Single(1), Procs: [][]int{{0}}}
	triple := mapping.Mapping{Parts: interval.Single(1), Procs: [][]int{{0, 1, 2}}}
	const n = 20000
	rs, err := Run(Config{Chain: c, Platform: pl, Mapping: single, Period: 25, DataSets: n, Seed: 1, InjectFailures: true})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Run(Config{Chain: c, Platform: pl, Mapping: triple, Period: 25, DataSets: n, Seed: 1, InjectFailures: true})
	if err != nil {
		t.Fatal(err)
	}
	if rt.FailureRate() >= rs.FailureRate() {
		t.Fatalf("triple replication failure %v >= single %v", rt.FailureRate(), rs.FailureRate())
	}
}

func TestSimDeterministicBySeed(t *testing.T) {
	c, pl, m := mcSetup()
	cfg := Config{Chain: c, Platform: pl, Mapping: m, Period: 20, DataSets: 2000, Seed: 99, InjectFailures: true, Routing: TwoHop}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Successes != b.Successes || len(a.Latencies) != len(b.Latencies) {
		t.Fatal("same seed produced different runs")
	}
	for i := range a.Latencies {
		if a.Latencies[i] != b.Latencies[i] {
			t.Fatal("same seed produced different latencies")
		}
	}
	cfg.Seed = 100
	c2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Successes == a.Successes {
		t.Log("different seeds coincidentally agree on success count (acceptable)")
	}
}

func TestSimConfigValidation(t *testing.T) {
	c, pl, m := pipeline3()
	if _, err := Run(Config{Chain: c, Platform: pl, Mapping: m, Period: 0, DataSets: 5}); err == nil {
		t.Fatal("accepted Period=0")
	}
	if _, err := Run(Config{Chain: c, Platform: pl, Mapping: m, Period: 5, DataSets: 0}); err == nil {
		t.Fatal("accepted DataSets=0")
	}
	bad := m.Clone()
	bad.Procs[0] = nil
	if _, err := Run(Config{Chain: c, Platform: pl, Mapping: bad, Period: 5, DataSets: 5}); err == nil {
		t.Fatal("accepted invalid mapping")
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{DataSets: 4, Successes: 3, Latencies: []float64{5, 7, 6}}
	if r.SuccessRate() != 0.75 || r.FailureRate() != 0.25 {
		t.Fatalf("rates = %v/%v", r.SuccessRate(), r.FailureRate())
	}
	if r.MeanLatency() != 6 {
		t.Fatalf("MeanLatency = %v", r.MeanLatency())
	}
	if r.MaxLatency() != 7 {
		t.Fatalf("MaxLatency = %v", r.MaxLatency())
	}
	empty := Result{}
	if !math.IsNaN(empty.SuccessRate()) || !math.IsNaN(empty.MeanLatency()) || !math.IsNaN(empty.MaxLatency()) {
		t.Fatal("empty result helpers must return NaN")
	}
}

func BenchmarkSimulator(b *testing.B) {
	c, pl, m := mcSetup()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := Run(Config{
			Chain: c, Platform: pl, Mapping: m,
			Period: 20, DataSets: 1000, Seed: uint64(i), InjectFailures: true, Routing: TwoHop,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ctxAfter implements context.Context and starts reporting cancellation
// after Err has been called n times, deterministically triggering the
// mid-replication poll inside the SoA event loop.
type ctxAfter struct {
	context.Context
	calls, n int
}

func (c *ctxAfter) Err() error {
	c.calls++
	if c.calls > c.n {
		return context.Canceled
	}
	return nil
}

func TestSoARunCancelsMidReplication(t *testing.T) {
	ch, pl, m := mcSetup()
	cfg := Config{
		Chain: ch, Platform: pl, Mapping: m,
		Period: 20, DataSets: 5000, Seed: 3, InjectFailures: true,
	}
	tb, err := newSoaTables(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the run must be long enough to hit several polls.
	ctx := &ctxAfter{Context: context.Background(), n: 2}
	eng := newSoaEngine(tb, ctx, nil)
	if _, err := eng.run(cfg.Seed); err != context.Canceled {
		t.Fatalf("run with mid-replication cancellation = %v, want context.Canceled", err)
	}
	if ctx.calls <= 2 {
		t.Fatalf("expected the event loop to poll the context more than twice, got %d calls", ctx.calls)
	}
}

// TestHeapHoldsOnlyInFlightEvents pins the injection cursor: at a
// stable period the number of pending events is bounded by the
// mapping, not by DataSets, so the engine's heap must not grow when the
// run is ten times longer. Pushing every injection up front would make
// its capacity at least DataSets.
func TestHeapHoldsOnlyInFlightEvents(t *testing.T) {
	c, pl, m := mcSetup()
	ev, err := mapping.Evaluate(c, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	heapCap := func(dataSets int) int {
		tab, err := newSoaTables(Config{
			Chain: c, Platform: pl, Mapping: m,
			Period: ev.WorstPeriod, DataSets: dataSets, Routing: TwoHop,
		})
		if err != nil {
			t.Fatal(err)
		}
		e := newSoaEngine(tab, nil, nil)
		res, err := e.run(1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Successes != dataSets {
			t.Fatalf("DataSets %d: %d successes on a failure-free run", dataSets, res.Successes)
		}
		return cap(e.heap)
	}
	short, long := heapCap(150), heapCap(1500)
	t.Logf("cap(heap): %d at 150 data sets, %d at 1500", short, long)
	if long > short {
		t.Fatalf("cap(heap) grew from %d to %d with ten times the data sets", short, long)
	}
	if short > 150/4 {
		t.Fatalf("cap(heap) = %d at 150 data sets; in-flight events should need far fewer slots", short)
	}
}
