package dp

import (
	"context"
	"math"
	"reflect"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

var degrees = []int{1, 2, 8}

// TestOptimizeReliabilityPeriodParMatchesSequential asserts the parallel
// candidate-table evaluation leaves Algorithm 2 bit-identical to the
// sequential solver on randomized instances at every degree, with and
// without a period bound.
func TestOptimizeReliabilityPeriodParMatchesSequential(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		c := chain.PaperRandom(rng.New(seed), 15)
		pl := platform.PaperHomogeneous(10)
		for _, period := range []float64{0, 200, 60} {
			wantM, wantEv, wantErr := OptimizeReliabilityPeriodPar(context.Background(), c, pl, period, 1)
			for _, p := range degrees {
				gotM, gotEv, gotErr := OptimizeReliabilityPeriodPar(context.Background(), c, pl, period, p)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("seed %d, period %g, P=%d: err = %v, want %v", seed, period, p, gotErr, wantErr)
				}
				if gotErr != nil {
					continue
				}
				if !reflect.DeepEqual(gotM, wantM) || !reflect.DeepEqual(gotEv, wantEv) {
					t.Fatalf("seed %d, period %g, P=%d: parallel DP differs from sequential", seed, period, p)
				}
			}
		}
	}
}

func TestMinPeriodForReliabilityParMatchesSequential(t *testing.T) {
	for seed := uint64(7); seed <= 9; seed++ {
		c := chain.PaperRandom(rng.New(seed), 12)
		pl := platform.PaperHomogeneous(8)
		wantM, wantEv, wantErr := MinPeriodForReliabilityPar(context.Background(), c, pl, math.Inf(-1), 1)
		for _, p := range degrees {
			gotM, gotEv, gotErr := MinPeriodForReliabilityPar(context.Background(), c, pl, math.Inf(-1), p)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d, P=%d: err = %v, want %v", seed, p, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !reflect.DeepEqual(gotM, wantM) || !reflect.DeepEqual(gotEv, wantEv) {
				t.Fatalf("seed %d, P=%d: parallel min-period differs from sequential", seed, p)
			}
		}
	}
}

func TestMinPeriodForReliabilityParCancellation(t *testing.T) {
	c := chain.PaperRandom(rng.New(1), 12)
	pl := platform.PaperHomogeneous(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := MinPeriodForReliabilityPar(ctx, c, pl, math.Inf(-1), 4); err == nil {
		t.Fatal("cancelled search returned no error")
	}
}
