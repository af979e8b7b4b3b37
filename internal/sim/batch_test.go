package sim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/dp"
	"relpipe/internal/mapping"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

func batchConfig(t *testing.T, seed uint64) Config {
	t.Helper()
	c := chain.PaperRandom(rng.New(seed), 8)
	pl := platform.Homogeneous(6, 1, 1e-4, 1, 1e-3, 3)
	m, _, err := dp.OptimizeReliability(c, pl)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := mapping.Evaluate(c, pl, m)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Chain: c, Platform: pl, Mapping: m,
		Period: ev.WorstPeriod, DataSets: 200, Seed: seed,
		InjectFailures: true, Routing: TwoHop,
	}
}

// TestRunBatchMatchesSequential asserts the parallel Monte-Carlo batch
// is bit-identical to a sequential loop over the derived seeds, for
// every degree.
func TestRunBatchMatchesSequential(t *testing.T) {
	cfg := batchConfig(t, 42)
	const reps = 6

	// The reference: derive the seeds exactly as RunBatch documents and
	// run each replication inline.
	master := rng.New(cfg.Seed)
	var want []Result
	for r := 0; r < reps; r++ {
		c := cfg
		c.Seed = master.Uint64()
		res, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	for _, p := range []int{1, 2, 8} {
		got, err := RunBatch(context.Background(), cfg, reps, p, nil)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if len(got.Runs) != reps || len(got.Seeds) != reps {
			t.Fatalf("P=%d: %d runs, %d seeds", p, len(got.Runs), len(got.Seeds))
		}
		if !reflect.DeepEqual(got.Runs, want) {
			t.Fatalf("P=%d: batch runs differ from the sequential reference", p)
		}
	}
}

func TestRunBatchAggregates(t *testing.T) {
	cfg := batchConfig(t, 7)
	b, err := RunBatch(context.Background(), cfg, 4, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.DataSets(), 4*cfg.DataSets; got != want {
		t.Fatalf("DataSets = %d, want %d", got, want)
	}
	if b.Successes() > b.DataSets() {
		t.Fatalf("Successes = %d > DataSets = %d", b.Successes(), b.DataSets())
	}
	if sr := b.SuccessRate(); sr < 0 || sr > 1 {
		t.Fatalf("SuccessRate = %g", sr)
	}
	if b.Successes() > 0 {
		if ml := b.MeanLatency(); math.IsNaN(ml) || ml <= 0 {
			t.Fatalf("MeanLatency = %g", ml)
		}
		if mx := b.MaxLatency(); mx < b.MeanLatency() {
			t.Fatalf("MaxLatency %g < MeanLatency %g", mx, b.MeanLatency())
		}
	}
	// Per-replication reproducibility: re-running with a recorded seed
	// reproduces that replication exactly.
	c := cfg
	c.Seed = b.Seeds[2]
	res, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, b.Runs[2]) {
		t.Fatal("replication not reproducible from its recorded seed")
	}
}

func TestRunBatchRejectsBadConfig(t *testing.T) {
	cfg := batchConfig(t, 9)
	if _, err := RunBatch(context.Background(), cfg, 0, 1, nil); err == nil {
		t.Fatal("zero replications accepted")
	}
	cfg.Trace = &Trace{}
	if _, err := RunBatch(context.Background(), cfg, 2, 1, nil); err == nil {
		t.Fatal("Trace accepted in a batch")
	}
}

func TestRunBatchCancellation(t *testing.T) {
	cfg := batchConfig(t, 11)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunBatch(ctx, cfg, 64, 4, nil); err == nil {
		t.Fatal("cancelled batch returned no error")
	}
}

// TestRunBatchSeedZeroAliasesDefaultSeed pins the repo-wide seed
// convention on the Monte-Carlo batch and on a single Run: a Seed of 0
// and the default seed 1 run the identical experiment.
func TestRunBatchSeedZeroAliasesDefaultSeed(t *testing.T) {
	cfg0 := batchConfig(t, 17)
	cfg0.Seed = 0
	cfg1 := cfg0
	cfg1.Seed = 1
	b0, err := RunBatch(context.Background(), cfg0, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := RunBatch(context.Background(), cfg1, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b0, b1) {
		t.Fatal("RunBatch seed 0 does not alias seed 1")
	}
	b2, err := RunBatch(context.Background(), cfg1, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Fatal("RunBatch is not reproducible for a fixed seed")
	}
	// Single Run, on a platform lossy enough that the seed decides the
	// outcome.
	c, pl, m := mcSetup()
	run0 := Config{Chain: c, Platform: pl, Mapping: m, Period: 20, DataSets: 300, InjectFailures: true}
	run1 := run0
	run1.Seed = 1
	r0, err := Run(run0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := Run(run1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r0, r1) {
		t.Fatal("Run seed 0 does not alias seed 1")
	}
}
