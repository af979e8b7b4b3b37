package relpipe

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"relpipe/internal/obs"
)

// TestInstrumentationBitIdentical is the determinism contract of the
// observability layer: running a solver with a live trace and stage
// observer attached must produce a byte-identical solution to an
// unobserved run, at every parallelism degree. Observation is strictly
// read-only.
func TestInstrumentationBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		in   Instance
		b    Bounds
		m    Method
	}{
		{"dp-hom", homInstance(10, 6), Bounds{Period: 50}, DP},
		{"exact-hom", homInstance(8, 5), Bounds{Period: 60, Latency: 400}, Exact},
		{"heuristic-het", hetInstance(14, 6), Bounds{Period: 80}, Heuristic},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 8} {
			plain, plainErr := OptimizeWith(tc.in, tc.b, tc.m, Options{Parallelism: par})

			rec := obs.NewRecorder(16)
			ctx, root := rec.StartTrace(context.Background(), "differential")
			var mu sync.Mutex
			var events []obs.StageEvent
			ctx = obs.WithStageObserver(ctx, func(e obs.StageEvent) {
				mu.Lock()
				events = append(events, e)
				mu.Unlock()
			})
			observed, obsErr := OptimizeWith(tc.in, tc.b, tc.m, Options{Context: ctx, Parallelism: par})
			root.End()

			if (plainErr == nil) != (obsErr == nil) {
				t.Fatalf("%s P=%d: errors diverge: %v vs %v", tc.name, par, plainErr, obsErr)
			}
			if plainErr != nil {
				continue
			}
			a, err := json.Marshal(plain)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(observed)
			if err != nil {
				t.Fatal(err)
			}
			if string(a) != string(b) {
				t.Errorf("%s P=%d: observed solution differs from unobserved:\n%s\nvs\n%s", tc.name, par, a, b)
			}
			// The observed run must actually have been observed: a
			// solve.<method> stage event and a recorded trace.
			mu.Lock()
			n := len(events)
			mu.Unlock()
			if n == 0 {
				t.Errorf("%s P=%d: no stage events delivered", tc.name, par)
			}
			if stored, _ := rec.Stats(); stored == 0 {
				t.Errorf("%s P=%d: no trace recorded", tc.name, par)
			}
		}
	}
}
