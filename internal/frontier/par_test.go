package frontier

import (
	"context"
	"reflect"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// TestComputeParMatchesSequential asserts the sharded frontier sweep —
// sharded enumeration, then dominance filter and sort — returns the exact
// sequential frontier (same points, same order, same floats) on
// randomized instances for every degree.
func TestComputeParMatchesSequential(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		c := chain.PaperRandom(rng.New(seed), 11)
		pl := platform.PaperHomogeneous(8)
		want, err := Compute(context.Background(), c, pl, 1, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, p := range []int{1, 2, 8} {
			got, err := Compute(context.Background(), c, pl, p, nil)
			if err != nil {
				t.Fatalf("seed %d, P=%d: %v", seed, p, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, P=%d: parallel frontier differs from sequential", seed, p)
			}
		}
	}
}

func TestComputeParCancellation(t *testing.T) {
	c := chain.PaperRandom(rng.New(1), 14)
	pl := platform.PaperHomogeneous(10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Compute(ctx, c, pl, 4, nil); err == nil {
		t.Fatal("cancelled frontier sweep returned no error")
	}
}
