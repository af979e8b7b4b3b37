package sim_test

// Differential suite pinning the flat-array engine (soa.go) to the
// scalar reference event loop (internal/sim/simref). The contract is
// bit-identity: for every Config and seed the two engines draw the same
// RNG stream in the same order and produce per-field identical Results
// and traces, so every comparison here is exact (Float64bits, never
// tolerances). FuzzSimSoA (fuzz_test.go) extends the same check to
// fuzzer-chosen instances.

import (
	"context"
	"math"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/interval"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/sim"
	"relpipe/internal/sim/simref"
)

// hetSetup returns a replicated mapping on a heterogeneous platform
// (distinct speeds and failure rates per processor) so the differential
// suite exercises per-replica compute tables that actually differ.
func hetSetup() (chain.Chain, platform.Platform, mapping.Mapping) {
	c := chain.Chain{{Work: 12, Out: 4}, {Work: 7, Out: 2}, {Work: 9, Out: 6}, {Work: 5, Out: 0}}
	pl := platform.Platform{
		Procs: []platform.Processor{
			{Speed: 1, FailRate: 5e-2},
			{Speed: 2, FailRate: 1e-2},
			{Speed: 4, FailRate: 2e-2},
			{Speed: 1.5, FailRate: 3e-2},
		},
		Bandwidth:    2,
		LinkFailRate: 8e-3,
		MaxReplicas:  2,
	}
	m := mapping.Mapping{
		Parts: interval.FromEnds([]int{1, 3}),
		Procs: [][]int{{0, 2}, {1, 3}},
	}
	return c, pl, m
}

// bitsEq reports exact bit equality, treating any NaN payloads as equal
// (both engines produce NaN only via math.NaN(), but the comparison
// should not depend on that).
func bitsEq(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// requireSameResult asserts per-field bit-identity of two Results.
func requireSameResult(t *testing.T, label string, got, want sim.Result) {
	t.Helper()
	if got.DataSets != want.DataSets {
		t.Fatalf("%s: DataSets = %d, want %d", label, got.DataSets, want.DataSets)
	}
	if got.Successes != want.Successes {
		t.Fatalf("%s: Successes = %d, want %d", label, got.Successes, want.Successes)
	}
	if len(got.Latencies) != len(want.Latencies) {
		t.Fatalf("%s: len(Latencies) = %d, want %d", label, len(got.Latencies), len(want.Latencies))
	}
	for i := range got.Latencies {
		if !bitsEq(got.Latencies[i], want.Latencies[i]) {
			t.Fatalf("%s: Latencies[%d] = %v, want %v", label, i, got.Latencies[i], want.Latencies[i])
		}
	}
	if len(got.Completions) != len(want.Completions) {
		t.Fatalf("%s: len(Completions) = %d, want %d", label, len(got.Completions), len(want.Completions))
	}
	for i := range got.Completions {
		if !bitsEq(got.Completions[i], want.Completions[i]) {
			t.Fatalf("%s: Completions[%d] = %v, want %v", label, i, got.Completions[i], want.Completions[i])
		}
	}
	if !bitsEq(got.SteadyPeriod, want.SteadyPeriod) {
		t.Fatalf("%s: SteadyPeriod = %v, want %v", label, got.SteadyPeriod, want.SteadyPeriod)
	}
}

// requireSameTracedRun runs cfg traced on both engines and asserts the
// Results and the recorded Op sequences are identical: same order, same
// fields, Start/End compared by Float64bits. The traced Result must
// also equal the untraced one, want.
func requireSameTracedRun(t *testing.T, label string, cfg sim.Config, want sim.Result) {
	t.Helper()
	gotTr, wantTr := &sim.Trace{}, &sim.Trace{}
	soa, ref := cfg, cfg
	soa.Trace, ref.Trace = gotTr, wantTr
	got, err := sim.Run(soa)
	if err != nil {
		t.Fatalf("%s: traced SoA run: %v", label, err)
	}
	if _, err := simref.Run(ref); err != nil {
		t.Fatalf("%s: traced oracle run: %v", label, err)
	}
	requireSameResult(t, label+": traced vs untraced", got, want)
	if len(gotTr.Ops) != len(wantTr.Ops) {
		t.Fatalf("%s: len(Ops) = %d, want %d", label, len(gotTr.Ops), len(wantTr.Ops))
	}
	for k, g := range gotTr.Ops {
		w := wantTr.Ops[k]
		if g.Kind != w.Kind || g.Stage != w.Stage || g.Replica != w.Replica || g.Proc != w.Proc ||
			g.DataSet != w.DataSet || g.Failed != w.Failed ||
			math.Float64bits(g.Start) != math.Float64bits(w.Start) ||
			math.Float64bits(g.End) != math.Float64bits(w.End) {
			t.Fatalf("%s: Ops[%d] = %+v, want %+v", label, k, g, w)
		}
	}
}

// soaCase is one Config the differential tests sweep.
type soaCase struct {
	name string
	cfg  sim.Config
}

// tieSetup returns a two-stage mapping with integer times: each stage
// computes for 4 on its own processor and ships zero bytes, so at
// Period 4 every injection lands at the same instant as a compute
// finish and the (time, seq) tie-break decides which runs first.
func tieSetup() (chain.Chain, platform.Platform, mapping.Mapping) {
	c := chain.Chain{{Work: 4, Out: 0}, {Work: 4, Out: 0}}
	pl := platform.Platform{
		Procs:        []platform.Processor{{Speed: 1, FailRate: 0.01}, {Speed: 1, FailRate: 0.2}},
		Bandwidth:    1,
		LinkFailRate: 0.05,
		MaxReplicas:  1,
	}
	m := mapping.Mapping{Parts: interval.FromEnds([]int{0, 1}), Procs: [][]int{{0}, {1}}}
	return c, pl, m
}

// soaCases builds the Config matrix: homogeneous and heterogeneous
// platforms, both routing modes, failure injection on and off, warm-up
// windows, a period tight enough to queue data sets on processors, and
// injections that tie with compute finishes.
func soaCases() []soaCase {
	cs, pls, ms := sim.Pipeline3()
	ch, plh, mh := sim.MCSetup()
	ce, ple, me := hetSetup()
	ct, plt, mt := tieSetup()
	return []soaCase{
		{"tie/onehop", sim.Config{
			Chain: ct, Platform: plt, Mapping: mt,
			Period: 4, DataSets: 30, Seed: 5,
		}},
		{"tie/twohop", sim.Config{
			Chain: ct, Platform: plt, Mapping: mt,
			Period: 4, DataSets: 30, Seed: 5, Routing: sim.TwoHop,
		}},
		{"tie/onehop-lossy", sim.Config{
			Chain: ct, Platform: plt, Mapping: mt,
			Period: 4, DataSets: 30, Seed: 5, InjectFailures: true,
		}},
		{"tie/twohop-lossy", sim.Config{
			Chain: ct, Platform: plt, Mapping: mt,
			Period: 4, DataSets: 30, Seed: 5, InjectFailures: true, Routing: sim.TwoHop,
		}},
		{"deterministic/onehop", sim.Config{
			Chain: cs, Platform: pls, Mapping: ms,
			Period: 12, DataSets: 25, Seed: 1,
		}},
		{"deterministic/tight-period", sim.Config{
			Chain: cs, Platform: pls, Mapping: ms,
			Period: 3, DataSets: 40, Seed: 1, WarmUp: 5,
		}},
		{"lossy/onehop", sim.Config{
			Chain: ch, Platform: plh, Mapping: mh,
			Period: 20, DataSets: 300, Seed: 7, InjectFailures: true,
		}},
		{"lossy/twohop", sim.Config{
			Chain: ch, Platform: plh, Mapping: mh,
			Period: 20, DataSets: 300, Seed: 7, InjectFailures: true,
			Routing: sim.TwoHop, WarmUp: 10,
		}},
		{"het/onehop", sim.Config{
			Chain: ce, Platform: ple, Mapping: me,
			Period: 15, DataSets: 400, Seed: 99, InjectFailures: true,
		}},
		{"het/twohop-tight", sim.Config{
			Chain: ce, Platform: ple, Mapping: me,
			Period: 6, DataSets: 400, Seed: 99, InjectFailures: true,
			Routing: sim.TwoHop, WarmUp: 20,
		}},
	}
}

func TestSoAMatchesScalarRun(t *testing.T) {
	for _, tc := range soaCases() {
		t.Run(tc.name, func(t *testing.T) {
			got, err := sim.Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := simref.Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "SoA vs scalar", got, want)
			requireSameTracedRun(t, "SoA vs scalar", tc.cfg, want)

			// Distinct seeds on a lossy run must actually diverge, or the
			// comparison above proves nothing.
			if tc.cfg.InjectFailures {
				soa2 := tc.cfg
				soa2.Seed = tc.cfg.Seed + 1
				other, err := sim.Run(soa2)
				if err != nil {
					t.Fatal(err)
				}
				if other.Successes == got.Successes && bitsEq(other.SteadyPeriod, got.SteadyPeriod) &&
					len(other.Latencies) == len(got.Latencies) {
					same := true
					for i := range other.Latencies {
						if !bitsEq(other.Latencies[i], got.Latencies[i]) {
							same = false
							break
						}
					}
					if same {
						t.Fatal("runs with different seeds produced identical results; seed is not reaching the engine")
					}
				}
			}
		})
	}
}

func TestSoABatchMatchesScalarBatch(t *testing.T) {
	const replications = 12
	for _, tc := range soaCases() {
		t.Run(tc.name, func(t *testing.T) {
			want, err := simref.RunBatch(tc.cfg, replications)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 2, 8} {
				got, err := sim.RunBatch(context.Background(), tc.cfg, replications, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Seeds) != len(want.Seeds) {
					t.Fatalf("P=%d: len(Seeds) = %d, want %d", p, len(got.Seeds), len(want.Seeds))
				}
				for r := range got.Seeds {
					if got.Seeds[r] != want.Seeds[r] {
						t.Fatalf("P=%d: Seeds[%d] = %d, want %d", p, r, got.Seeds[r], want.Seeds[r])
					}
				}
				if len(got.Runs) != len(want.Runs) {
					t.Fatalf("P=%d: len(Runs) = %d, want %d", p, len(got.Runs), len(want.Runs))
				}
				for r := range got.Runs {
					requireSameResult(t, tc.name, got.Runs[r], want.Runs[r])
				}
				// Aggregates follow from per-field identity, but pin them
				// too: they are what callers actually consume.
				if !bitsEq(got.SuccessRate(), want.SuccessRate()) ||
					!bitsEq(got.MeanLatency(), want.MeanLatency()) ||
					!bitsEq(got.MaxLatency(), want.MaxLatency()) ||
					!bitsEq(got.MeanSteadyPeriod(), want.MeanSteadyPeriod()) {
					t.Fatalf("P=%d: batch aggregates diverge from scalar reference", p)
				}
			}
		})
	}
}

// TestSoABatchNoInjectCopies pins the failure-free fast path: every
// replication is the same outcome, delivered as independent slices so a
// caller mutating one run cannot corrupt its siblings.
func TestSoABatchNoInjectCopies(t *testing.T) {
	c, pl, m := sim.Pipeline3()
	cfg := sim.Config{Chain: c, Platform: pl, Mapping: m, Period: 12, DataSets: 10, Seed: 1}
	b, err := sim.RunBatch(context.Background(), cfg, 3, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := simref.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r := range b.Runs {
		requireSameResult(t, "fast path", b.Runs[r], want)
	}
	if len(b.Runs[0].Latencies) == 0 {
		t.Fatal("expected successful data sets")
	}
	b.Runs[0].Latencies[0] = -1
	b.Runs[0].Completions[0] = -1
	if b.Runs[1].Latencies[0] == -1 || b.Runs[1].Completions[0] == -1 {
		t.Fatal("replications share slice storage; fast path must hand out copies")
	}
}

func TestSoABatchCancelledContext(t *testing.T) {
	ch, pl, m := sim.MCSetup()
	cfg := sim.Config{
		Chain: ch, Platform: pl, Mapping: m,
		Period: 20, DataSets: 50, Seed: 3, InjectFailures: true,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.RunBatch(ctx, cfg, 4, 2, nil); err == nil {
		t.Fatal("RunBatch with a cancelled context succeeded")
	}
}

// TestSoAValidationMatchesScalar pins that the flat engine rejects
// exactly what the scalar oracle rejects, with an error either way.
func TestSoAValidationMatchesScalar(t *testing.T) {
	c, pl, m := sim.Pipeline3()
	bad := []sim.Config{
		{Chain: c, Platform: pl, Mapping: m, Period: 0, DataSets: 10},
		{Chain: c, Platform: pl, Mapping: m, Period: math.NaN(), DataSets: 10},
		{Chain: c, Platform: pl, Mapping: m, Period: math.Inf(1), DataSets: 10},
		{Chain: c, Platform: pl, Mapping: m, Period: 12, DataSets: 0},
		{Chain: c, Platform: pl, Mapping: mapping.Mapping{}, Period: 12, DataSets: 10},
		{Chain: chain.Chain{}, Platform: pl, Mapping: m, Period: 12, DataSets: 10},
	}
	for i, cfg := range bad {
		if _, err := sim.Run(cfg); err == nil {
			t.Fatalf("case %d: SoA accepted an invalid config", i)
		}
		if _, err := simref.Run(cfg); err == nil {
			t.Fatalf("case %d: scalar accepted an invalid config", i)
		}
	}
	// Out-of-range WarmUp normalizes to 0 on both paths.
	cfg := sim.Config{Chain: c, Platform: pl, Mapping: m, Period: 12, DataSets: 10, WarmUp: 99}
	got, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := simref.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "warmup normalization", got, want)
}

// TestSoAUnknownRoutingPanicsLazily pins the lazy panic contract shared
// with the scalar oracle: a bogus routing mode only panics when a
// boundary is actually crossed, so a single-stage mapping never
// observes it.
func TestSoAUnknownRoutingPanicsLazily(t *testing.T) {
	c, pl, m := sim.Pipeline3()
	cfg := sim.Config{
		Chain: c, Platform: pl, Mapping: m,
		Period: 12, DataSets: 5, Routing: sim.RoutingMode(42),
	}
	for name, run := range map[string]func(sim.Config) (sim.Result, error){"soa": sim.Run, "scalar": simref.Run} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: multi-stage run with unknown routing mode did not panic", name)
				}
			}()
			_, _ = run(cfg)
		}()
	}

	// Single stage: no boundary, no panic, identical results.
	single := sim.Config{
		Chain:    chain.Chain{{Work: 10, Out: 0}},
		Platform: platform.Homogeneous(1, 1, 0, 1, 0, 1),
		Mapping:  mapping.Mapping{Parts: interval.FromEnds([]int{0}), Procs: [][]int{{0}}},
		Period:   12, DataSets: 5, Routing: sim.RoutingMode(42),
	}
	got, err := sim.Run(single)
	if err != nil {
		t.Fatal(err)
	}
	want, err := simref.Run(single)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "single stage bogus routing", got, want)
}
