package service

import (
	"net/http"
	"testing"

	"relpipe"
)

// TestSimulateSeedZeroAliasesSeedOne pins the repo-wide seed
// convention at the service layer: seed 0 and seed 1 are one request
// (same behaviour as relpipe simulate and sim.RunBatch) and share one
// cache entry.
func TestSimulateSeedZeroAliasesSeedOne(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	in := testInstance(9)
	sol, err := relpipe.Optimize(in, relpipe.Bounds{}, relpipe.Auto)
	if err != nil {
		t.Fatal(err)
	}
	req := relpipe.SimulateRequest{
		Instance: in, Mapping: sol.Mapping,
		Period: sol.Eval.WorstPeriod, DataSets: 50,
		Seed: 0, InjectFailures: true,
	}
	var r0 relpipe.SimulateResponse
	if code := postJSON(t, ts.URL+"/v1/simulate", req, &r0); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	req.Seed = 1
	var r1 relpipe.SimulateResponse
	if code := postJSON(t, ts.URL+"/v1/simulate", req, &r1); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if r0 != r1 {
		t.Fatalf("seed 0 response %+v differs from seed 1 %+v", r0, r1)
	}
	if hits := seriesSum(t, s.Metrics(), "relpipe_cache_hits_total"); hits != 1 {
		t.Fatalf("seed 0 and seed 1 did not share a cache entry: %d hits", hits)
	}
}

// TestAdaptSeedZeroAliasesSeedOne pins the same convention on
// /v1/adapt.
func TestAdaptSeedZeroAliasesSeedOne(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	req := adaptReq(9)
	req.Seed = 0
	var r0 relpipe.AdaptResponse
	if code := postJSON(t, ts.URL+"/v1/adapt", req, &r0); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	req.Seed = 1
	var r1 relpipe.AdaptResponse
	if code := postJSON(t, ts.URL+"/v1/adapt", req, &r1); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if r0 != r1 {
		t.Fatalf("seed 0 response %+v differs from seed 1 %+v", r0, r1)
	}
	if hits := seriesSum(t, s.Metrics(), "relpipe_cache_hits_total"); hits != 1 {
		t.Fatalf("seed 0 and seed 1 did not share a cache entry: %d hits", hits)
	}
}
