package service

import (
	"encoding/json"
	"net/http"
	"testing"

	"relpipe"
)

func adaptReq(seed uint64) relpipe.AdaptRequest {
	return relpipe.AdaptRequest{
		Instance:     testInstance(seed),
		Policy:       "spares",
		Horizon:      500,
		LifeScale:    1e5,
		Spares:       2,
		Seed:         1,
		Replications: 4,
	}
}

func TestAdaptEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	var resp relpipe.AdaptResponse
	if code := postJSON(t, ts.URL+"/v1/adapt", adaptReq(1), &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Policy != "spares" {
		t.Fatalf("policy = %q", resp.Policy)
	}
	s := resp.Summary
	if s.Replications != 4 {
		t.Fatalf("replications = %d", s.Replications)
	}
	if s.MissionReliability < 0 || s.MissionReliability > 1 || s.Availability <= 0 {
		t.Fatalf("implausible summary: %+v", s)
	}
}

func TestAdaptEndpointExplicitMapping(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	in := testInstance(2)
	sol, err := relpipe.Optimize(in, relpipe.Bounds{}, relpipe.Auto)
	if err != nil {
		t.Fatal(err)
	}
	req := adaptReq(2)
	req.Policy = "none"
	req.Mapping = &sol.Mapping
	var resp relpipe.AdaptResponse
	if code := postJSON(t, ts.URL+"/v1/adapt", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Summary.MeanRepairs != 0 {
		t.Fatalf("policy none repaired: %+v", resp.Summary)
	}
}

func TestAdaptEndpointRejectsBadInput(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	for name, mutate := range map[string]func(*relpipe.AdaptRequest){
		"bad policy":         func(r *relpipe.AdaptRequest) { r.Policy = "bogus" },
		"neg replications":   func(r *relpipe.AdaptRequest) { r.Replications = -1 },
		"reps over cap":      func(r *relpipe.AdaptRequest) { r.Replications = 1025 },
		"zero horizon":       func(r *relpipe.AdaptRequest) { r.Horizon = 0 },
		"search over budget": func(r *relpipe.AdaptRequest) { r.Search = &relpipe.SearchParams{Budget: 1 << 30} },
	} {
		req := adaptReq(3)
		mutate(&req)
		if code := postJSON(t, ts.URL+"/v1/adapt", req, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, code)
		}
	}
}

func TestAdaptEndpointCachesByPolicyParams(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	req := adaptReq(4)
	if code := postJSON(t, ts.URL+"/v1/adapt", req, nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/adapt", req, nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if hits := seriesSum(t, s.Metrics(), "relpipe_cache_hits_total"); hits != 1 {
		t.Fatalf("identical request not cached: %d hits", hits)
	}
	// A different spare pool must miss the cache.
	req.Spares = 3
	if code := postJSON(t, ts.URL+"/v1/adapt", req, nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	hits, misses := seriesSum(t, s.Metrics(), "relpipe_cache_hits_total"), seriesSum(t, s.Metrics(), "relpipe_cache_misses_total")
	if hits != 1 || misses != 2 {
		t.Fatalf("policy params not in cache key: %d hits, %d misses", hits, misses)
	}
}

// TestAdaptSearchKnobsKeyScope mirrors the optimize-endpoint rule: the
// search knobs enter the cache key whenever they can shape the answer —
// always for the remap policy, and for any policy when the server
// optimizes the initial mapping itself (method Auto is
// search-sensitive) — and only a non-searching policy over an explicit
// mapping drops them.
func TestAdaptSearchKnobsKeyScope(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	in := testInstance(5)
	sol, err := relpipe.Optimize(in, relpipe.Bounds{}, relpipe.Auto)
	if err != nil {
		t.Fatal(err)
	}
	req := adaptReq(5)
	req.Policy = "none"
	req.Mapping = &sol.Mapping
	if code := postJSON(t, ts.URL+"/v1/adapt", req, nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	req.Search = &relpipe.SearchParams{Restarts: 2, Budget: 100}
	if code := postJSON(t, ts.URL+"/v1/adapt", req, nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if hits := seriesSum(t, s.Metrics(), "relpipe_cache_hits_total"); hits != 1 {
		t.Fatalf("search knobs leaked into a non-searching explicit-mapping key: %d hits", hits)
	}
	// Same non-searching policy but with the mapping optimized
	// server-side: the knobs steer that Optimize, so they must key.
	req.Mapping = nil
	req.Search = nil
	if code := postJSON(t, ts.URL+"/v1/adapt", req, nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	req.Search = &relpipe.SearchParams{Restarts: 2, Budget: 100}
	if code := postJSON(t, ts.URL+"/v1/adapt", req, nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if misses := seriesSum(t, s.Metrics(), "relpipe_cache_misses_total"); misses != 3 {
		t.Fatalf("search knobs missing from the server-optimized mapping key: %d misses", misses)
	}
	req.Policy = "remap"
	req.Mapping = &sol.Mapping
	req.Search = nil
	if code := postJSON(t, ts.URL+"/v1/adapt", req, nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	req.Search = &relpipe.SearchParams{Restarts: 2, Budget: 100}
	if code := postJSON(t, ts.URL+"/v1/adapt", req, nil); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if misses := seriesSum(t, s.Metrics(), "relpipe_cache_misses_total"); misses != 5 {
		t.Fatalf("remap search knobs missing from cache key: %d misses", misses)
	}
}

func TestAdaptInBatch(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	req := adaptReq(6)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	batch := relpipe.BatchRequest{Jobs: []relpipe.BatchJob{{Kind: "adapt", Request: body}}}
	var resp relpipe.BatchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", batch, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 1 || resp.Results[0].Status != http.StatusOK {
		t.Fatalf("batch results: %+v", resp.Results)
	}
}
