package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"relpipe"
	"relpipe/internal/golden"
)

// everyKindGolden is the SHA-256 of TestEveryKindWireGolden's answers.
// It changes only when a change moves answers on purpose; that change
// records the new digest and says why in its change notes.
const everyKindGolden = "4b1c94cc6ed6bdf7f9b65d5e348c3d8633419bbc3d0fbf1beacc7064e3258e85"

// wireCase is one request of the every-kind golden: the /v1 path
// segment and the document posted to it.
type wireCase struct {
	kind string
	body []byte
}

// everyKindRequests builds the seeded requests of the every-kind
// golden: each solve kind, each optimize method, both routings and
// replication paths of simulate, each adapt policy, and one batch that
// mixes kinds (with an item of unknown kind).
func everyKindRequests(t *testing.T) []wireCase {
	t.Helper()
	in := testInstance(41)
	het := hetInstance(42, 24, 8)
	bounds := relpipe.Bounds{Period: 200, Latency: 700}
	search := &relpipe.SearchParams{Restarts: 2, Budget: 300, Seed: 3}
	sol, err := relpipe.Optimize(in, relpipe.Bounds{}, relpipe.DP)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, in.Platform.P())
	for u := range costs {
		costs[u] = float64(1 + u%3)
	}
	var cases []wireCase
	add := func(kind string, req any) {
		cases = append(cases, wireCase{kind, mustMarshal(t, req)})
	}
	add("evaluate", relpipe.EvaluateRequest{Instance: in, Mapping: sol.Mapping})
	for _, m := range []string{"dp", "exact", "ilp", "heur-p", "heur-l", "best-heuristic", "heuristic", "auto"} {
		b := bounds
		if m == "dp" {
			b.Latency = 0 // DP takes no latency bound (Theorem 3)
		}
		add("optimize", relpipe.OptimizeRequest{Instance: in, Bounds: b, Method: m, Search: search})
	}
	add("optimize", relpipe.OptimizeRequest{Instance: het, Method: "heuristic", Search: search})
	for _, m := range []string{"dp", "heuristic"} {
		add("minperiod", relpipe.MinPeriodRequest{Instance: in, MinReliability: 0.9, Method: m, Search: search})
	}
	for _, m := range []string{"exact", "heuristic"} {
		add("mincost", relpipe.MinCostRequest{Instance: in, Costs: costs, MinReliability: 0.9, Bounds: bounds, Method: m, Search: search})
	}
	add("frontier", relpipe.FrontierRequest{Instance: in})
	for _, reps := range []int{1, 4} {
		for _, routing := range []string{"one-hop", "two-hop"} {
			add("simulate", relpipe.SimulateRequest{
				Instance: in, Mapping: sol.Mapping, Period: sol.Eval.WorstPeriod, DataSets: 100,
				Seed: 5, InjectFailures: true, Routing: routing, Replications: reps,
			})
		}
	}
	for _, p := range relpipe.AdaptPolicies() {
		add("adapt", relpipe.AdaptRequest{
			Instance: in, Policy: p.String(), Horizon: 500, LifeScale: 1e5, Spares: 2,
			Costs: costs, Seed: 7, Replications: 3, Search: search,
		})
	}
	add("batch", relpipe.BatchRequest{Jobs: []relpipe.BatchJob{
		{Kind: "evaluate", Request: mustMarshal(t, relpipe.EvaluateRequest{Instance: in, Mapping: sol.Mapping})},
		{Kind: "optimize", Request: mustMarshal(t, relpipe.OptimizeRequest{Instance: in, Bounds: relpipe.Bounds{Period: 200}, Method: "dp"})},
		{Kind: "frontier", Request: mustMarshal(t, relpipe.FrontierRequest{Instance: in})},
		{Kind: "simulate", Request: mustMarshal(t, relpipe.SimulateRequest{
			Instance: in, Mapping: sol.Mapping, Period: sol.Eval.WorstPeriod, DataSets: 50, Seed: 9, Replications: 2})},
		{Kind: "nosuchkind", Request: json.RawMessage(`{}`)},
	}})
	return cases
}

// TestEveryKindWireGolden posts every everyKindRequests document to a
// server at SolverParallelism 1 and to one at 8, requires the two
// answers to match byte for byte, and compares one SHA-256 of every
// status and body with the committed digest, so a refactor of the
// request path that moves any byte of any kind's answer fails here.
func TestEveryKindWireGolden(t *testing.T) {
	cases := everyKindRequests(t)
	golden.Bytes(t, "every-kind wire", golden.Digest(everyKindGolden), func(par int) []byte {
		_, ts := newTestServer(t, Options{SolverParallelism: par})
		var out bytes.Buffer
		for i, c := range cases {
			code, body, _ := postRaw(t, ts.URL+"/v1/"+c.kind, c.body)
			if code != 200 {
				t.Errorf("case %d (%s) at P=%d: status %d: %s", i, c.kind, par, code, body)
			}
			fmt.Fprintf(&out, "%s %d %d\n", c.kind, code, len(body))
			out.Write(body)
		}
		return out.Bytes()
	})
}
