package service

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"strings"
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

// TestSimulateDataSetBound: replications × dataSets above maxSimDataSets
// answers 400 naming the limit, on the endpoint, as a batch item and as
// a job submission, and before any solve starts (so before any
// per-data-set allocation). A request at the limit parses.
func TestSimulateDataSetBound(t *testing.T) {
	in := testInstance(3)
	sol, err := relpipe.Optimize(in, relpipe.Bounds{}, relpipe.DP)
	if err != nil {
		t.Fatal(err)
	}
	doc := func(reps, dataSets int) []byte {
		return mustMarshal(t, relpipe.SimulateRequest{
			Instance: in, Mapping: sol.Mapping,
			Period: sol.Eval.WorstPeriod, DataSets: dataSets, Replications: reps,
		})
	}
	limit := strconv.Itoa(maxSimDataSets)
	over := doc(8, 100_000_000)
	s, ts := newTestServer(t, Options{})

	code, body, _ := postRaw(t, ts.URL+"/v1/simulate", over)
	if code != http.StatusBadRequest || !strings.Contains(string(body), limit) {
		t.Fatalf("endpoint: %d %s, want 400 naming the limit %s", code, body, limit)
	}
	batch := mustMarshal(t, relpipe.BatchRequest{Jobs: []relpipe.BatchJob{{Kind: "simulate", Request: over}}})
	var br relpipe.BatchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", json.RawMessage(batch), &br); code != http.StatusOK {
		t.Fatalf("batch: status %d", code)
	}
	if r := br.Results[0]; r.Status != http.StatusBadRequest || !strings.Contains(string(r.Body), limit) {
		t.Fatalf("batch item: %d %s, want 400 naming the limit", r.Status, r.Body)
	}
	job := mustMarshal(t, relpipe.JobSubmitRequest{Kind: "simulate", Request: over})
	code, body, _ = postRaw(t, ts.URL+"/v1/jobs", job)
	if code != http.StatusBadRequest || !strings.Contains(string(body), limit) {
		t.Fatalf("job submit: %d %s, want 400 naming the limit", code, body)
	}
	if n := seriesSum(t, s.Metrics(), "relpipe_solves_total"); n != 0 {
		t.Fatalf("solves = %d, want 0: the bound must reject before solving", n)
	}

	parse := kinds["simulate"].parse
	if _, _, err := parse(doc(4, maxSimDataSets/4), s.exec); err != nil {
		t.Fatalf("at the limit: %v", err)
	}
	if _, _, err := parse(doc(4, maxSimDataSets/4+1), s.exec); err == nil {
		t.Fatal("one data set over the limit parsed")
	}
	if _, _, err := parse(doc(0, maxSimDataSets+1), s.exec); err == nil {
		t.Fatal("default replication over the limit parsed")
	}
}
