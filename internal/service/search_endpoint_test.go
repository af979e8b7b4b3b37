package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"relpipe"
	"relpipe/internal/chain"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// hetInstance builds a heterogeneous test instance: the platforms the
// heuristic search exists for.
func hetInstance(seed uint64, n, p int) relpipe.Instance {
	r := rng.New(seed)
	return relpipe.Instance{
		Chain:    chain.PaperRandom(r, n),
		Platform: platform.PaperHeterogeneous(r, p),
	}
}

// searchParams keeps endpoint tests fast: small portfolio, small budget.
var searchParams = &relpipe.SearchParams{Restarts: 2, Budget: 300, Seed: 1}

func TestOptimizeHeuristicEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := hetInstance(1, 30, 10)
	var resp relpipe.OptimizeResponse
	code := postJSON(t, ts.URL+"/v1/optimize",
		relpipe.OptimizeRequest{Instance: in, Method: "heuristic", Search: searchParams}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Solution.Method != "heuristic" {
		t.Fatalf("method = %q", resp.Solution.Method)
	}
	if err := resp.Solution.Mapping.Validate(in.Chain, in.Platform); err != nil {
		t.Fatalf("returned mapping invalid: %v", err)
	}
}

func TestMinPeriodHeuristicEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// Heterogeneous: auto routes to the search engine.
	in := hetInstance(2, 20, 8)
	var resp relpipe.OptimizeResponse
	code := postJSON(t, ts.URL+"/v1/minperiod",
		relpipe.MinPeriodRequest{Instance: in, MinReliability: 0.99, Search: searchParams}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Solution.Method != "min-period-heuristic" || resp.Solution.Eval.WorstPeriod <= 0 {
		t.Fatalf("solution = %+v", resp.Solution)
	}
	// An explicit DP request on the same platform is a solver error (400).
	code = postJSON(t, ts.URL+"/v1/minperiod",
		relpipe.MinPeriodRequest{Instance: in, Method: "dp"}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("explicit dp on het platform: status = %d, want 400", code)
	}
}

func TestMinCostHeuristicEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(5)
	costs := make([]float64, in.Platform.P())
	for i := range costs {
		costs[i] = float64(i + 1)
	}
	var resp relpipe.MinCostResponse
	code := postJSON(t, ts.URL+"/v1/mincost",
		relpipe.MinCostRequest{Instance: in, Costs: costs, MinReliability: 0.99,
			Method: "heuristic", Search: searchParams}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Solution.TotalCost <= 0 || len(resp.Solution.Mapping.Parts) == 0 {
		t.Fatalf("solution = %+v", resp.Solution)
	}
}

// TestSearchBudgetCaps mirrors the replication cap: requests
// beyond the configured search caps are rejected up front with 400.
func TestSearchBudgetCaps(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxSearchRestarts: 4, MaxSearchBudget: 1000})
	in := testInstance(6)
	for name, sp := range map[string]*relpipe.SearchParams{
		"restarts over cap": {Restarts: 5},
		"budget over cap":   {Budget: 1001},
		"negative restarts": {Restarts: -1},
		"negative budget":   {Budget: -5},
	} {
		code := postJSON(t, ts.URL+"/v1/optimize",
			relpipe.OptimizeRequest{Instance: in, Method: "heuristic", Search: sp}, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", name, code)
		}
	}
	// At the cap is accepted.
	code := postJSON(t, ts.URL+"/v1/optimize",
		relpipe.OptimizeRequest{Instance: in, Method: "heuristic",
			Search: &relpipe.SearchParams{Restarts: 4, Budget: 1000, Seed: 1}}, nil)
	if code != http.StatusOK {
		t.Fatalf("at-cap request: status = %d", code)
	}
}

// TestSearchCapsBoundDefaultedKnobs: the caps bound every search a
// request starts, also where the request leaves the knobs to their
// defaults (8 restarts and 2000 iterations for the search, 2 and 500
// for adapt's remaps). Under caps below every default, a request with
// no search block must answer exactly as one that spells the caps out,
// and each search it starts must stay within restarts × budget
// iterations.
func TestSearchCapsBoundDefaultedKnobs(t *testing.T) {
	const restarts, budget = 1, 400
	s := NewServer(Options{MaxSearchRestarts: restarts, MaxSearchBudget: budget, CacheSize: -1})
	defer s.Close()
	in := hetInstance(3, 30, 10)
	costs := make([]float64, in.Platform.P())
	for u := range costs {
		costs[u] = float64(1 + u%3)
	}
	capped := &relpipe.SearchParams{Restarts: restarts, Budget: budget}
	bounds := relpipe.Bounds{Period: 400, Latency: 4000}
	for _, tc := range []struct {
		kind string
		req  func(sp *relpipe.SearchParams) any
	}{
		{"optimize", func(sp *relpipe.SearchParams) any {
			return relpipe.OptimizeRequest{Instance: in, Bounds: bounds, Method: "heuristic", Search: sp}
		}},
		{"minperiod", func(sp *relpipe.SearchParams) any {
			return relpipe.MinPeriodRequest{Instance: in, MinReliability: 0.5, Method: "heuristic", Search: sp}
		}},
		{"mincost", func(sp *relpipe.SearchParams) any {
			return relpipe.MinCostRequest{Instance: in, Costs: costs, Bounds: bounds, Method: "heuristic", Search: sp}
		}},
		{"adapt", func(sp *relpipe.SearchParams) any {
			return relpipe.AdaptRequest{Instance: in, Bounds: bounds, Policy: "remap", Horizon: 500, LifeScale: 1e5, Search: sp}
		}},
	} {
		body := func(sp *relpipe.SearchParams) []byte {
			b, err := json.Marshal(tc.req(sp))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		anneal := func() (searches, iters int64) {
			return seriesSum(t, s.metrics, `relpipe_solver_stage_duration_seconds_count{stage="search.anneal"}`),
				seriesSum(t, s.metrics, `relpipe_solver_stage_units_total{stage="search.anneal"}`)
		}
		searches0, iters0 := anneal()
		got := s.process(context.Background(), tc.kind, kinds[tc.kind].parse, body(nil))
		searches, iters := anneal()
		searches, iters = searches-searches0, iters-iters0
		if searches == 0 || iters > searches*restarts*budget {
			t.Errorf("%s: %d defaulted searches ran %d iterations, caps allow %d each", tc.kind, searches, iters, restarts*budget)
		}
		want := s.process(context.Background(), tc.kind, kinds[tc.kind].parse, body(capped))
		if got.status != http.StatusOK || want.status != http.StatusOK || !bytes.Equal(got.body, want.body) {
			t.Errorf("%s: defaulted knobs answer %d %s, knobs at the caps %d %s", tc.kind, got.status, got.body, want.status, want.body)
		}
	}
}

// TestSearchParamsEnterCacheKey: identical requests share a cache
// entry; changing only the seed must miss (different search, possibly
// different answer).
func TestSearchParamsEnterCacheKey(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	in := hetInstance(3, 25, 8)
	req := relpipe.OptimizeRequest{Instance: in, Method: "heuristic",
		Search: &relpipe.SearchParams{Restarts: 2, Budget: 300, Seed: 1}}
	postJSON(t, ts.URL+"/v1/optimize", req, nil)
	postJSON(t, ts.URL+"/v1/optimize", req, nil) // identical: cache hit
	req2 := req
	req2.Search = &relpipe.SearchParams{Restarts: 2, Budget: 300, Seed: 2}
	postJSON(t, ts.URL+"/v1/optimize", req2, nil) // new seed: miss
	if hits := seriesSum(t, s.Metrics(), "relpipe_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if solves := seriesSum(t, s.Metrics(), "relpipe_solves_total"); solves != 2 {
		t.Fatalf("solves = %d, want 2", solves)
	}
}

// TestSearchParamsIgnoredInKeyForExactMethods: exact/DP answers cannot
// depend on the search knobs, so requests differing only in an
// (ignored) search block must share one cache entry.
func TestSearchParamsIgnoredInKeyForExactMethods(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	in := testInstance(11)
	req := relpipe.OptimizeRequest{Instance: in, Method: "exact", Bounds: relpipe.Bounds{Period: 300},
		Search: &relpipe.SearchParams{Seed: 1}}
	postJSON(t, ts.URL+"/v1/optimize", req, nil)
	req.Search = &relpipe.SearchParams{Seed: 2}
	postJSON(t, ts.URL+"/v1/optimize", req, nil)
	if solves := seriesSum(t, s.Metrics(), "relpipe_solves_total"); solves != 1 {
		t.Fatalf("solves = %d, want 1 (search knobs must not fragment exact-method cache keys)", solves)
	}
	if hits := seriesSum(t, s.Metrics(), "relpipe_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}

// TestHeuristicDeterministicAcrossServerParallelism pins the service
// contract that lets search results be cached: the solver parallelism
// budget never changes the answer, so two servers with different
// budgets must produce byte-identical solutions.
func TestHeuristicDeterministicAcrossServerParallelism(t *testing.T) {
	in := hetInstance(4, 30, 10)
	req := relpipe.OptimizeRequest{Instance: in, Method: "heuristic", Search: searchParams}
	var got [2]relpipe.OptimizeResponse
	for i, par := range []int{-1, 8} {
		_, ts := newTestServer(t, Options{SolverParallelism: par})
		if code := postJSON(t, ts.URL+"/v1/optimize", req, &got[i]); code != http.StatusOK {
			t.Fatalf("parallelism %d: status = %d", par, code)
		}
	}
	if got[0].Solution.Eval.LogRel != got[1].Solution.Eval.LogRel {
		t.Fatalf("solver parallelism changed the search answer: %.17g vs %.17g",
			got[0].Solution.Eval.LogRel, got[1].Solution.Eval.LogRel)
	}
}

// TestReliabilityFloorAboveOneInfeasible: no mapping succeeds with
// probability 1.5, so every min-period and min-cost method answers 422
// on both platform kinds. The search reads a non-negative
// log-reliability floor as "no floor", so the facade must reject the
// floor before it gets there.
func TestReliabilityFloorAboveOneInfeasible(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct {
		name      string
		in        relpipe.Instance
		minPeriod []string
		minCost   []string
	}{
		{"homogeneous", testInstance(3), []string{"auto", "dp", "heuristic"}, []string{"auto", "exact", "heuristic"}},
		{"heterogeneous", hetInstance(3, 8, 6), []string{"auto", "heuristic"}, []string{"auto", "heuristic"}},
	} {
		for _, m := range tc.minPeriod {
			code := postJSON(t, ts.URL+"/v1/minperiod", relpipe.MinPeriodRequest{
				Instance: tc.in, MinReliability: 1.5, Method: m, Search: searchParams}, nil)
			if code != http.StatusUnprocessableEntity {
				t.Errorf("%s minperiod %s: status = %d, want 422", tc.name, m, code)
			}
		}
		costs := make([]float64, tc.in.Platform.P())
		for u := range costs {
			costs[u] = float64(1 + u%3)
		}
		for _, m := range tc.minCost {
			code := postJSON(t, ts.URL+"/v1/mincost", relpipe.MinCostRequest{
				Instance: tc.in, Costs: costs, MinReliability: 1.5, Method: m, Search: searchParams}, nil)
			if code != http.StatusUnprocessableEntity {
				t.Errorf("%s mincost %s: status = %d, want 422", tc.name, m, code)
			}
		}
	}
}
