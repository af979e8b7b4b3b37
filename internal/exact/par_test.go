package exact

import (
	"context"
	"reflect"
	"testing"

	"relpipe/internal/chain"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// degrees are the parallelism levels every differential test sweeps:
// sequential, a degree that splits the space, and one far above
// GOMAXPROCS to force shard contention.
var degrees = []int{1, 2, 8}

// TestProfilesParMatchesSequential is the differential determinism test
// of the tentpole: the sharded enumeration must reproduce the sequential
// profile list bit-for-bit — same profiles, same order, same floats —
// on randomized instances at every degree.
func TestProfilesParMatchesSequential(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		c := chain.PaperRandom(rng.New(seed), 10)
		pl := platform.PaperHomogeneous(7)
		want, err := Profiles(c, pl)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, p := range degrees {
			got, err := ProfilesPar(context.Background(), c, pl, p)
			if err != nil {
				t.Fatalf("seed %d, P=%d: %v", seed, p, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, P=%d: parallel profiles differ from sequential", seed, p)
			}
		}
	}
}

func TestOptimalParMatchesSequential(t *testing.T) {
	for seed := uint64(11); seed <= 14; seed++ {
		c := chain.PaperRandom(rng.New(seed), 10)
		pl := platform.PaperHomogeneous(7)
		wantM, wantEv, wantErr := OptimalPar(context.Background(), c, pl, 250, 900, 1)
		for _, p := range degrees {
			gotM, gotEv, gotErr := OptimalPar(context.Background(), c, pl, 250, 900, p)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d, P=%d: err = %v, want %v", seed, p, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !reflect.DeepEqual(gotM, wantM) || !reflect.DeepEqual(gotEv, wantEv) {
				t.Fatalf("seed %d, P=%d: parallel optimum differs from sequential\n got %v %+v\nwant %v %+v",
					seed, p, gotM, gotEv, wantM, wantEv)
			}
		}
	}
}

func TestProfilesParCancellation(t *testing.T) {
	c := chain.PaperRandom(rng.New(1), 14)
	pl := platform.PaperHomogeneous(10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ProfilesPar(ctx, c, pl, 4); err == nil {
		t.Fatal("cancelled enumeration returned no error")
	}
}
