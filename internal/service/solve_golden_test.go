package service

import (
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"relpipe"
	"relpipe/internal/golden"
)

// solveGoldenDir holds the pinned exact-solver wire bytes: one
// <name>.req.json request body and one <name>.resp.json response body
// per case. The name's prefix is the endpoint.
const solveGoldenDir = "testdata/solvegolden"

// solveGoldenRequests builds the pinned request bodies. Exact optimize
// with bounds on 10-13 tasks and frontiers on 10-12 tasks run over
// platforms with more processors than tasks, fewer (so the enumeration
// skips partitions) and high failure rates. Exact min-cost cases set a
// reliability floor with bounds, a floor alone, bounds alone, and a
// floor no mapping reaches (422); prices differ per processor so the
// cheapest-prefix choice matters, and failure rates are high enough
// that the floors need replicas.
func solveGoldenRequests(t *testing.T) map[string][]byte {
	t.Helper()
	platforms := []relpipe.Platform{
		relpipe.HomogeneousPlatform(10, 1, 1e-8, 1, 1e-5, 3),
		relpipe.HomogeneousPlatform(6, 1, 1e-3, 1, 1e-4, 2),
		relpipe.HomogeneousPlatform(16, 1, 1e-4, 2, 1e-5, 4),
	}
	// chainBounds bounds the period by the chain's largest task and a
	// share of its work, and the latency a little above its total work.
	chainBounds := func(c relpipe.Chain, share, slack float64) relpipe.Bounds {
		total, most := 0.0, 0.0
		for _, task := range c {
			total += task.Work
			most = max(most, task.Work)
		}
		return relpipe.Bounds{Period: max(1.5*most, total/share), Latency: 1.1*total + slack}
	}
	reqs := map[string][]byte{}
	for i := range 8 {
		n := 10 + i%4
		c := relpipe.RandomChain(uint64(100+i), n, 1, 100, 1, 10)
		reqs[fmt.Sprintf("optimize-%02d-n%d", i, n)] = mustMarshal(t, relpipe.OptimizeRequest{
			Instance: relpipe.Instance{Chain: c, Platform: platforms[i%len(platforms)]},
			Bounds:   chainBounds(c, float64(2+i%3), float64(10*(i%4))), Method: "exact",
		})
	}
	for i := range 4 {
		n := 10 + i%3
		c := relpipe.RandomChain(uint64(200+i), n, 1, 100, 1, 10)
		reqs[fmt.Sprintf("frontier-%02d-n%d", i, n)] = mustMarshal(t, relpipe.FrontierRequest{
			Instance: relpipe.Instance{Chain: c, Platform: platforms[i%len(platforms)]},
		})
	}
	for i, tc := range []struct {
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
	} {
		c := relpipe.RandomChain(uint64(300+i), tc.n, 1, 100, 1, 10)
		costs := make([]float64, tc.pl.P())
		for u := range costs {
			costs[u] = float64(1 + (u*7+i)%5)
		}
		var b relpipe.Bounds
		if tc.tight {
			b = chainBounds(c, 3, 20)
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

// TestSolveWireGolden posts every pinned exact optimize and frontier
// request to a server at SolverParallelism 1 and to one at 8 and
// compares each response body byte for byte with the committed one.
// The bytes are an oracle independent of the solver code: a kernel
// change that moves any float of any answer fails here. The request
// files must also equal what solveGoldenRequests builds, so the
// generator stays the record of how the cases were chosen, and the
// directory must hold no other file.
func TestSolveWireGolden(t *testing.T) {
	reqs := solveGoldenRequests(t)
	files, err := os.ReadDir(solveGoldenDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 16 || len(files) != 2*len(reqs) {
		t.Fatalf("%d golden requests and %d files in %s, want 16 and 32", len(reqs), len(files), solveGoldenDir)
	}
	runSolveGolden(t, reqs, func(name string) bool { return !strings.HasPrefix(name, "mincost-") })
}

// TestMinCostWireGolden runs the min-cost rows of the same table: every
// pinned /v1/mincost body must come back byte for byte at P=1 and P=8,
// the infeasible case as its 422 error document.
func TestMinCostWireGolden(t *testing.T) {
	runSolveGolden(t, solveGoldenRequests(t), func(name string) bool { return strings.HasPrefix(name, "mincost-") })
}

// runSolveGolden posts each request whose name keep accepts to the
// endpoint its name's prefix names, as a subtest of that name, and
// compares the request and response bytes with the committed files
// through the golden harness.
func runSolveGolden(t *testing.T, reqs map[string][]byte, keep func(string) bool) {
	for _, name := range slices.Sorted(maps.Keys(reqs)) {
		if !keep(name) {
			continue
		}
		body := reqs[name]
		t.Run(name, func(t *testing.T) {
			wantCode := http.StatusOK
			if strings.Contains(name, "infeasible") {
				wantCode = http.StatusUnprocessableEntity
			}
			pins := map[string]golden.Pin{}
			for _, file := range []string{name + ".req.json", name + ".resp.json"} {
				pins[file] = golden.File(filepath.Join(solveGoldenDir, file))
			}
			golden.Outputs(t, pins, func(par int) map[string][]byte {
				_, ts := newTestServer(t, Options{SolverParallelism: par})
				code, got, _ := postRaw(t, ts.URL+"/v1/"+strings.SplitN(name, "-", 2)[0], body)
				if code != wantCode {
					t.Errorf("P=%d: status %d, want %d: %s", par, code, wantCode, got)
				}
				return map[string][]byte{name + ".req.json": body, name + ".resp.json": got}
			})
		})
	}
}
