package service

// Service-layer pinning of the flat-array Monte-Carlo engine: the
// /v1/simulate wire response must equal the aggregates of the scalar
// reference oracle (internal/sim/simref), single-run and batched. The
// wire format maps undefined aggregates (NaN) to 0; the comparison goes
// through the same mapping.

import (
	"math"
	"net/http"
	"testing"

	"relpipe"
	"relpipe/internal/sim/simref"
)

func TestSimulateEndpointMatchesScalarOracle(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(9)
	var opt relpipe.OptimizeResponse
	if code := postJSON(t, ts.URL+"/v1/optimize",
		relpipe.OptimizeRequest{Instance: in, Bounds: relpipe.Bounds{Period: 200}, Method: "exact"}, &opt); code != http.StatusOK {
		t.Fatalf("optimize status = %d", code)
	}

	for _, reps := range []int{1, 4} {
		var resp relpipe.SimulateResponse
		code := postJSON(t, ts.URL+"/v1/simulate", relpipe.SimulateRequest{
			Instance: in, Mapping: opt.Solution.Mapping,
			Period: 200, DataSets: 300, Seed: 5, InjectFailures: true,
			Routing: "two-hop", WarmUp: 10, Replications: reps,
		}, &resp)
		if code != http.StatusOK {
			t.Fatalf("reps=%d: status = %d", reps, code)
		}

		// Recompute through the scalar reference oracle, mirroring the
		// parser's dispatch (single Run vs RunBatch) and the wire's
		// NaN-to-0 mapping.
		cfg := relpipe.SimConfig{
			Chain: in.Chain, Platform: in.Platform, Mapping: opt.Solution.Mapping,
			Period: 200, DataSets: 300, Seed: 5, InjectFailures: true,
			Routing: relpipe.SimTwoHop, WarmUp: 10,
		}
		var want relpipe.SimulateResponse
		if reps > 1 {
			batch, err := simref.RunBatch(cfg, reps)
			if err != nil {
				t.Fatal(err)
			}
			want = relpipe.SimulateResponse{
				DataSets: batch.DataSets(), Successes: batch.Successes(),
				SuccessRate:  zeroIfNaN(batch.SuccessRate()),
				MeanLatency:  zeroIfNaN(batch.MeanLatency()),
				MaxLatency:   zeroIfNaN(batch.MaxLatency()),
				SteadyPeriod: zeroIfNaN(batch.MeanSteadyPeriod()),
			}
		} else {
			res, err := simref.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want = relpipe.SimulateResponse{
				DataSets: res.DataSets, Successes: res.Successes,
				SuccessRate:  zeroIfNaN(res.SuccessRate()),
				MeanLatency:  zeroIfNaN(res.MeanLatency()),
				MaxLatency:   zeroIfNaN(res.MaxLatency()),
				SteadyPeriod: zeroIfNaN(res.SteadyPeriod),
			}
		}
		if resp != want {
			t.Fatalf("reps=%d: /v1/simulate %+v diverges from scalar reference %+v", reps, resp, want)
		}
	}
}

func zeroIfNaN(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
