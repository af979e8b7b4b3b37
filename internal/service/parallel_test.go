package service

import (
	"net/http"
	"runtime"
	"testing"

	"relpipe"
)

// TestSolverParallelismDefaults pins the budget rule: workers ×
// per-request parallelism ≈ GOMAXPROCS, never below 1.
func TestSolverParallelismDefaults(t *testing.T) {
	cores := runtime.GOMAXPROCS(0)
	cases := []struct {
		opts Options
		want int
	}{
		{Options{Workers: 1}, cores},
		{Options{Workers: cores}, 1},
		{Options{Workers: 4 * cores}, 1},
		{Options{Workers: 1, SolverParallelism: 3}, 3},
		{Options{Workers: 1, SolverParallelism: -1}, 1},
	}
	for _, c := range cases {
		s := NewServer(c.opts)
		if got := s.exec.parallelism; got != c.want {
			t.Errorf("opts %+v: parallelism = %d, want %d", c.opts, got, c.want)
		}
		s.Close()
	}
}

// TestSimulateReplications exercises the Monte-Carlo batch path of
// /v1/simulate: replications multiply the pooled data sets, results are
// deterministic across identical requests, and the per-request
// parallelism budget never changes the aggregates.
func TestSimulateReplications(t *testing.T) {
	in := testInstance(3)
	sol, err := relpipe.Optimize(in, relpipe.Bounds{}, relpipe.DP)
	if err != nil {
		t.Fatal(err)
	}
	req := relpipe.SimulateRequest{
		Instance: in, Mapping: sol.Mapping,
		Period: sol.Eval.WorstPeriod, DataSets: 100, Seed: 5,
		InjectFailures: true, Routing: "two-hop", Replications: 4,
	}
	var batched relpipe.SimulateResponse
	run := func(opts Options) relpipe.SimulateResponse {
		t.Helper()
		_, ts := newTestServer(t, opts)
		var resp relpipe.SimulateResponse
		if code := postJSON(t, ts.URL+"/v1/simulate", req, &resp); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		return resp
	}
	batched = run(Options{})
	if batched.DataSets != 4*100 {
		t.Fatalf("DataSets = %d, want %d", batched.DataSets, 400)
	}
	if batched.SuccessRate < 0 || batched.SuccessRate > 1 {
		t.Fatalf("SuccessRate = %g", batched.SuccessRate)
	}
	// Same request under a different parallelism budget: identical
	// aggregates (caching is disabled to force a re-solve).
	if again := run(Options{CacheSize: -1, SolverParallelism: 8}); again != batched {
		t.Fatalf("parallelism changed the batch: %+v vs %+v", again, batched)
	}
	if again := run(Options{CacheSize: -1, SolverParallelism: -1}); again != batched {
		t.Fatalf("sequential run changed the batch: %+v vs %+v", again, batched)
	}
}

func TestSimulateReplicationsBounds(t *testing.T) {
	in := testInstance(3)
	sol, err := relpipe.Optimize(in, relpipe.Bounds{}, relpipe.DP)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{})
	req := func(reps int) int {
		return postJSON(t, ts.URL+"/v1/simulate", relpipe.SimulateRequest{
			Instance: in, Mapping: sol.Mapping,
			Period: sol.Eval.WorstPeriod, DataSets: 10, Replications: reps,
		}, nil)
	}
	if code := req(-2); code != http.StatusBadRequest {
		t.Fatalf("negative replications: status = %d, want 400", code)
	}
	// An absurd replication count must be rejected up front — the batch
	// allocates per-replication state before simulating, so admitting it
	// would let one request exhaust memory.
	if code := req(2_000_000_000); code != http.StatusBadRequest {
		t.Fatalf("oversized replications: status = %d, want 400", code)
	}
	if code := req(1025); code != http.StatusBadRequest {
		t.Fatalf("one over the limit: status = %d, want 400", code)
	}
	if code := req(1024); code != http.StatusOK {
		t.Fatalf("limit replications: status = %d, want 200", code)
	}
}
