package service

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relpipe"
)

// solveGoldenDir holds the pinned exact-solver wire bytes: one
// <name>.req.json request body and one <name>.resp.json response body
// per case. The name's prefix is the endpoint.
const solveGoldenDir = "testdata/solvegolden"

// solveGoldenRequests builds the pinned request bodies: exact optimize
// with bounds on 10-13 tasks and frontiers on 10-12 tasks, over
// platforms with more processors than tasks, fewer (so the enumeration
// skips partitions) and high failure rates.
func solveGoldenRequests(t *testing.T) map[string][]byte {
	t.Helper()
	platforms := []relpipe.Platform{
		relpipe.HomogeneousPlatform(10, 1, 1e-8, 1, 1e-5, 3),
		relpipe.HomogeneousPlatform(6, 1, 1e-3, 1, 1e-4, 2),
		relpipe.HomogeneousPlatform(16, 1, 1e-4, 2, 1e-5, 4),
	}
	reqs := map[string][]byte{}
	for i := range 8 {
		n := 10 + i%4
		c := relpipe.RandomChain(uint64(100+i), n, 1, 100, 1, 10)
		total, most := 0.0, 0.0
		for _, task := range c {
			total += task.Work
			most = max(most, task.Work)
		}
		b := relpipe.Bounds{Period: max(1.5*most, total/float64(2+i%3)), Latency: 1.1*total + float64(10*(i%4))}
		reqs[fmt.Sprintf("optimize-%02d-n%d", i, n)] = mustMarshal(t, relpipe.OptimizeRequest{
			Instance: relpipe.Instance{Chain: c, Platform: platforms[i%len(platforms)]},
			Bounds:   b, Method: "exact",
		})
	}
	for i := range 4 {
		n := 10 + i%3
		c := relpipe.RandomChain(uint64(200+i), n, 1, 100, 1, 10)
		reqs[fmt.Sprintf("frontier-%02d-n%d", i, n)] = mustMarshal(t, relpipe.FrontierRequest{
			Instance: relpipe.Instance{Chain: c, Platform: platforms[i%len(platforms)]},
		})
	}
	return reqs
}

// TestSolveWireGolden posts every pinned exact-optimize and frontier
// request and compares the response body byte for byte with the
// committed one. The bytes are an oracle independent of the solver
// code: a kernel change that moves any float of any answer fails here.
// The request files must also equal what solveGoldenRequests builds, so
// the generator stays the record of how the cases were chosen.
func TestSolveWireGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	reqs := solveGoldenRequests(t)
	if len(reqs) != 12 {
		t.Fatalf("%d golden requests, want 12", len(reqs))
	}
	for name, body := range reqs {
		t.Run(name, func(t *testing.T) {
			committed, err := os.ReadFile(filepath.Join(solveGoldenDir, name+".req.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, committed) {
				t.Fatalf("generated request differs from %s.req.json", name)
			}
			want, err := os.ReadFile(filepath.Join(solveGoldenDir, name+".resp.json"))
			if err != nil {
				t.Fatal(err)
			}
			path := "/v1/" + strings.SplitN(name, "-", 2)[0]
			code, got, _ := postRaw(t, ts.URL+path, body)
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("response bytes differ from %s.resp.json\n got %s\nwant %s", name, got, want)
			}
		})
	}
}

// minCostGoldenRequests builds the pinned exact /v1/mincost bodies: a
// reliability floor with bounds, a floor alone, bounds alone, and a
// floor no mapping reaches (422). Prices differ per processor so the
// cheapest-prefix choice matters, and failure rates are high enough
// that the floors need replicas.
func minCostGoldenRequests(t *testing.T) map[string][]byte {
	t.Helper()
	cases := []struct {
		name  string
		n     int
		pl    relpipe.Platform
		floor float64
		tight bool // bound period and latency
	}{
		{"floor-bounds", 12, relpipe.HomogeneousPlatform(10, 1, 1e-4, 1, 1e-5, 3), 0.995, true},
		{"floor", 11, relpipe.HomogeneousPlatform(8, 1, 1e-3, 2, 1e-4, 4), 0.9, false},
		{"bounds", 10, relpipe.HomogeneousPlatform(12, 1, 1e-5, 1, 1e-5, 2), 0, true},
		{"infeasible", 12, relpipe.HomogeneousPlatform(6, 1, 1e-3, 1, 1e-4, 2), 0.999999, false},
	}
	reqs := map[string][]byte{}
	for i, tc := range cases {
		c := relpipe.RandomChain(uint64(300+i), tc.n, 1, 100, 1, 10)
		costs := make([]float64, tc.pl.P())
		for u := range costs {
			costs[u] = float64(1 + (u*7+i)%5)
		}
		var b relpipe.Bounds
		if tc.tight {
			total, most := 0.0, 0.0
			for _, task := range c {
				total += task.Work
				most = max(most, task.Work)
			}
			b = relpipe.Bounds{Period: max(1.5*most, total/3), Latency: 1.1*total + 20}
		}
		reqs[fmt.Sprintf("mincost-%02d-%s-n%d", i, tc.name, tc.n)] = mustMarshal(t, relpipe.MinCostRequest{
			Instance:       relpipe.Instance{Chain: c, Platform: tc.pl},
			Costs:          costs,
			MinReliability: tc.floor,
			Bounds:         b,
			Method:         "exact",
		})
	}
	return reqs
}

// TestMinCostWireGolden is TestSolveWireGolden for the exact min-cost
// solver: every pinned /v1/mincost body must come back byte for byte,
// the infeasible case as its 422 error document.
func TestMinCostWireGolden(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	reqs := minCostGoldenRequests(t)
	if len(reqs) != 4 {
		t.Fatalf("%d golden requests, want 4", len(reqs))
	}
	for name, body := range reqs {
		t.Run(name, func(t *testing.T) {
			committed, err := os.ReadFile(filepath.Join(solveGoldenDir, name+".req.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(body, committed) {
				t.Fatalf("generated request differs from %s.req.json", name)
			}
			want, err := os.ReadFile(filepath.Join(solveGoldenDir, name+".resp.json"))
			if err != nil {
				t.Fatal(err)
			}
			wantCode := http.StatusOK
			if strings.Contains(name, "infeasible") {
				wantCode = http.StatusUnprocessableEntity
			}
			code, got, _ := postRaw(t, ts.URL+"/v1/mincost", body)
			if code != wantCode {
				t.Fatalf("status %d, want %d: %s", code, wantCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("response bytes differ from %s.resp.json\n got %s\nwant %s", name, got, want)
			}
		})
	}
}
