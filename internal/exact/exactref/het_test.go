package exactref

import (
	"context"
	"reflect"
	"testing"
	"time"

	"relpipe/internal/chain"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

func TestOptimalHetParCancelsMidRecursion(t *testing.T) {
	c := chain.PaperRandom(rng.New(1), 12)
	pl := platform.PaperHomogeneous(8)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := OptimalHetPar(ctx, c, pl, 0, 0, 2)
		done <- err
	}()
	time.Sleep(200 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Log("solve finished before cancellation; nothing to assert")
		} else if lag := time.Since(start); lag > 3*time.Second {
			t.Fatalf("cancellation lag %v, want prompt", lag)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("OptimalHetPar did not observe cancellation")
	}
}

// TestOptimalHetParMatchesSequential: the sharded exhaustive search
// returns the sequential optimum bit for bit at every degree.
func TestOptimalHetParMatchesSequential(t *testing.T) {
	for seed := uint64(21); seed <= 23; seed++ {
		r := rng.New(seed)
		c := chain.PaperRandom(r, 6)
		pl := platform.RandomHeterogeneous(r, 5, 1, 10, 1e-3, 1e-1, 1, 1e-3, 3)
		wantM, wantEv, wantErr := OptimalHetPar(context.Background(), c, pl, 0, 0, 1)
		for _, p := range []int{1, 2, 8} {
			gotM, gotEv, gotErr := OptimalHetPar(context.Background(), c, pl, 0, 0, p)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed %d, P=%d: err = %v, want %v", seed, p, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !reflect.DeepEqual(gotM, wantM) || !reflect.DeepEqual(gotEv, wantEv) {
				t.Fatalf("seed %d, P=%d: parallel het optimum differs from sequential", seed, p)
			}
		}
	}
}
