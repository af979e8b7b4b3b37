package adapt

// The remap policy's searches run under RunBatch's context: each one
// reports its search stages to the batch's observer, though not as
// spans of the batch's trace (one search per crash of every
// replication would grow it without bound), and a cancelled batch
// stops inside the running search instead of finishing every
// replication.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"relpipe/internal/obs"
)

func TestRemapSearchesReportStages(t *testing.T) {
	c, pl, m := hetInstance(t, 21, 40, 16, 0, 0)
	opts := lifeOpts(PolicyRemap)
	opts.Restarts, opts.Budget = 2, 300
	for _, par := range []int{1, 8} {
		var mu sync.Mutex
		stages := map[string]int{}
		ctx := obs.WithStageObserver(context.Background(), func(e obs.StageEvent) {
			mu.Lock()
			stages[e.Name]++
			mu.Unlock()
		})
		rec := obs.NewRecorder(1)
		ctx, root := rec.StartTrace(ctx, "adapt")
		b, err := RunBatch(ctx, c, pl, m, opts, 6, par, nil)
		root.End()
		if err != nil {
			t.Fatalf("P=%d: %v", par, err)
		}
		tr, _ := rec.Find(obs.TraceIDFrom(ctx))
		traced := map[string]int{}
		for _, sp := range tr.Spans {
			traced[sp.Name]++
		}
		if traced["adapt.batch"] != 1 || traced["search.seed"] != 0 || traced["search.anneal"] != 0 {
			t.Errorf("P=%d: trace spans %v, want one adapt.batch and no search stage", par, traced)
		}
		// Under the remap policy every crash of a hosted processor runs
		// one repair search.
		remaps := 0
		for _, run := range b.Runs {
			for _, ev := range run.Events {
				if ev.Interval >= 0 {
					remaps++
				}
			}
		}
		if b.Summarize().MeanRepairs == 0 || remaps == 0 {
			t.Fatalf("P=%d: the batch never remapped", par)
		}
		if got := stages["search.anneal"]; got != remaps {
			t.Errorf("P=%d: %d search.anneal observations for %d remaps", par, got, remaps)
		}
		if got := stages["search.seed"]; got != remaps {
			t.Errorf("P=%d: %d search.seed observations for %d remaps", par, got, remaps)
		}
		if got := stages["adapt.batch"]; got != 1 {
			t.Errorf("P=%d: %d adapt.batch observations, want 1", par, got)
		}
	}
}

func TestRemapBatchStopsOnCancel(t *testing.T) {
	// Left alone this batch runs for tens of seconds: 64 replications,
	// each remapping several times with searches of up to 200000
	// iterations per restart. Cancelled 200 ms in, it must return
	// context.Canceled within seconds.
	c, pl, m := hetInstance(t, 22, 40, 16, 0, 0)
	opts := lifeOpts(PolicyRemap)
	opts.Restarts, opts.Budget = 2, 200000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := RunBatch(ctx, c, pl, m, opts, 64, 1, nil)
		done <- err
	}()
	time.Sleep(200 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled batch returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled batch still running 5 s after cancellation")
	}
}
