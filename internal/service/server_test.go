package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relpipe"
	"relpipe/internal/obs"
)

// testInstance is a small homogeneous instance every endpoint can solve
// in milliseconds.
func testInstance(seed uint64) relpipe.Instance {
	return relpipe.Instance{
		Chain:    relpipe.RandomChain(seed, 8, 1, 100, 1, 10),
		Platform: relpipe.HomogeneousPlatform(6, 1, 1e-8, 1, 1e-5, 3),
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// process runs one body through the synchronous contract, the way a
// /v1 endpoint does, without the HTTP layer: tests drive parsers and
// solve closures of their own through it. It installs the stage
// observer as serveObserved would, so stage metrics count its solves.
func (s *Server) process(ctx context.Context, kind string, parse parser, body []byte) outcome {
	req, err := s.newRequest(kind, parse, body)
	if err != nil {
		return errorOutcome(http.StatusBadRequest, err)
	}
	return s.execute(obs.WithStageObserver(ctx, s.observer), req)
}

// postJSON posts v and decodes the response body into out (if non-nil),
// returning the status code.
func postJSON(t *testing.T, url string, v any, out any) int {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestOptimizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(1)
	var resp relpipe.OptimizeResponse
	code := postJSON(t, ts.URL+"/v1/optimize",
		relpipe.OptimizeRequest{Instance: in, Bounds: relpipe.Bounds{Period: 200, Latency: 700}, Method: "exact"},
		&resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Solution.Method != "exact" || len(resp.Solution.Mapping.Parts) == 0 {
		t.Fatalf("solution = %+v", resp.Solution)
	}
	if err := resp.Solution.Mapping.Validate(in.Chain, in.Platform); err != nil {
		t.Fatalf("returned mapping invalid: %v", err)
	}
	if resp.Solution.Eval.WorstPeriod > 200 || resp.Solution.Eval.WorstLatency > 700 {
		t.Fatalf("bounds violated: %+v", resp.Solution.Eval)
	}
}

func TestOptimizeInfeasibleIs422(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	code := postJSON(t, ts.URL+"/v1/optimize",
		relpipe.OptimizeRequest{Instance: testInstance(1), Bounds: relpipe.Bounds{Period: 1e-6}}, nil)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", code)
	}
}

func TestMalformedRequestsAre400(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	const plat = `"platform":{"procs":[{"speed":1,"failRate":0}],"bandwidth":1,"linkFailRate":0,"maxReplicas":1}`
	// 61 tasks: beyond the exact frontier's enumeration ceiling.
	longChain := `{"instance":{"chain":[` + strings.Repeat(`{"work":1,"out":1},`, 60) + `{"work":1,"out":0}],` + plat + `}}`
	const mapping = `"mapping":{"parts":[{"first":0,"last":0}],"procs":[[0]]}`
	for _, tc := range []struct {
		name, path, body string
		status           int
	}{
		{"syntax", "/v1/optimize", `{"instance":`, http.StatusBadRequest},
		{"unknown-field", "/v1/optimize", `{"instance":{"chain":[{"work":1,"out":0}],` + plat + `},"typo":1}`, http.StatusBadRequest},
		{"bad-method", "/v1/optimize", `{"instance":{"chain":[{"work":1,"out":0}],` + plat + `},"method":"nope"}`, http.StatusBadRequest},
		{"invalid-chain", "/v1/optimize", `{"instance":{"chain":[{"work":-1,"out":0}],` + plat + `}}`, http.StatusBadRequest},
		{"frontier-beyond-exact", "/v1/frontier", longChain, http.StatusBadRequest},
		// Unknown members inside the instance arrays are rejected at
		// every depth, not only at the top of the document.
		{"unknown-task-field", "/v1/evaluate", `{"instance":{"chain":[{"work":1,"out":0,"typo":5}],` + plat + `},` + mapping + `}`, http.StatusBadRequest},
		{"unknown-processor-field", "/v1/evaluate", `{"instance":{"chain":[{"work":1,"out":0}],"platform":{"procs":[{"speed":1,"failRate":0,"typo":5}],"bandwidth":1,"linkFailRate":0,"maxReplicas":1}},` + mapping + `}`, http.StatusBadRequest},
		{"misspelled-platform-field", "/v1/evaluate", `{"instance":{"chain":[{"work":1,"out":0}],"platform":{"procs":[{"speed":1,"failRate":0}],"bandwidth":1,"bandwith":1,"linkFailRate":0,"maxReplicas":1}},` + mapping + `}`, http.StatusBadRequest},
		{"evaluate-overflows-json", "/v1/evaluate",
			`{"instance":{"chain":[{"work":1e308,"out":0}],"platform":{"procs":[{"speed":1e-308,"failRate":0}],"bandwidth":1,"linkFailRate":0,"maxReplicas":1}},` +
				mapping + `}`, http.StatusUnprocessableEntity},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, b)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/optimize")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/optimize = %d, want 405", resp.StatusCode)
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(2)
	sol, err := relpipe.Optimize(in, relpipe.Bounds{}, relpipe.DP)
	if err != nil {
		t.Fatal(err)
	}
	var resp relpipe.EvaluateResponse
	code := postJSON(t, ts.URL+"/v1/evaluate",
		relpipe.EvaluateRequest{Instance: in, Mapping: sol.Mapping}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Eval.WorstPeriod <= 0 || resp.Eval.FailProb < 0 || resp.Eval.FailProb > 1 {
		t.Fatalf("eval = %+v", resp.Eval)
	}
	if resp.Eval.LogRel != sol.Eval.LogRel {
		t.Fatalf("service eval %v != library eval %v", resp.Eval.LogRel, sol.Eval.LogRel)
	}
}

func TestMinPeriodEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var resp relpipe.OptimizeResponse
	code := postJSON(t, ts.URL+"/v1/minperiod",
		relpipe.MinPeriodRequest{Instance: testInstance(3), MinReliability: 0.9}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Solution.Method != "min-period" || resp.Solution.Eval.WorstPeriod <= 0 {
		t.Fatalf("solution = %+v", resp.Solution)
	}
}

func TestFrontierEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var resp relpipe.FrontierResponse
	code := postJSON(t, ts.URL+"/v1/frontier",
		relpipe.FrontierRequest{Instance: testInstance(4)}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(resp.Points) == 0 {
		t.Fatal("empty frontier")
	}
	for i := 1; i < len(resp.Points); i++ {
		if resp.Points[i].Period < resp.Points[i-1].Period {
			t.Fatal("frontier not sorted by period")
		}
	}
}

func TestMinCostEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(5)
	costs := make([]float64, in.Platform.P())
	for i := range costs {
		costs[i] = float64(i + 1)
	}
	var resp relpipe.MinCostResponse
	code := postJSON(t, ts.URL+"/v1/mincost",
		relpipe.MinCostRequest{Instance: in, Costs: costs, MinReliability: 0.99}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.Solution.TotalCost <= 0 || len(resp.Solution.Mapping.Parts) == 0 {
		t.Fatalf("solution = %+v", resp.Solution)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(6)
	sol, err := relpipe.Optimize(in, relpipe.Bounds{}, relpipe.DP)
	if err != nil {
		t.Fatal(err)
	}
	var resp relpipe.SimulateResponse
	code := postJSON(t, ts.URL+"/v1/simulate", relpipe.SimulateRequest{
		Instance: in, Mapping: sol.Mapping,
		Period: sol.Eval.WorstPeriod, DataSets: 100, Routing: "two-hop",
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if resp.DataSets != 100 || resp.SuccessRate != 1 {
		t.Fatalf("failure-free run: %+v", resp)
	}
	// Unknown routing mode is a 400.
	code = postJSON(t, ts.URL+"/v1/simulate", relpipe.SimulateRequest{
		Instance: in, Mapping: sol.Mapping, Period: 100, DataSets: 10, Routing: "three-hop",
	}, nil)
	if code != http.StatusBadRequest {
		t.Fatalf("bad routing status = %d, want 400", code)
	}
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(7)
	sol, err := relpipe.Optimize(in, relpipe.Bounds{}, relpipe.DP)
	if err != nil {
		t.Fatal(err)
	}
	mustRaw := func(v any) json.RawMessage {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var resp relpipe.BatchResponse
	code := postJSON(t, ts.URL+"/v1/batch", relpipe.BatchRequest{Jobs: []relpipe.BatchJob{
		{Kind: "optimize", Request: mustRaw(relpipe.OptimizeRequest{Instance: in, Method: "dp"})},
		{Kind: "evaluate", Request: mustRaw(relpipe.EvaluateRequest{Instance: in, Mapping: sol.Mapping})},
		{Kind: "nonsense", Request: mustRaw(struct{}{})},
		{Kind: "optimize", Request: mustRaw(relpipe.OptimizeRequest{Instance: in, Bounds: relpipe.Bounds{Period: 1e-6}})},
	}}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	want := []int{200, 200, 400, 422}
	if len(resp.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(resp.Results), len(want))
	}
	for i, w := range want {
		if resp.Results[i].Status != w {
			t.Errorf("job %d: status %d, want %d (body %s)", i, resp.Results[i].Status, w, resp.Results[i].Body)
		}
	}
	var opt relpipe.OptimizeResponse
	if err := json.Unmarshal(resp.Results[0].Body, &opt); err != nil || opt.Solution.Method != "dp" {
		t.Fatalf("job 0 body: %v %+v", err, opt.Solution)
	}
}

// TestBatchLimits: a batch holds at most 256 jobs. The items are of an
// unknown kind, so each answers 400 inside a 200 batch without any
// solver work, and only the item count decides the batch status.
func TestBatchLimits(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	batch := func(n int) relpipe.BatchRequest {
		jobs := make([]relpipe.BatchJob, n)
		for i := range jobs {
			jobs[i] = relpipe.BatchJob{Kind: "nope", Request: json.RawMessage(`{}`)}
		}
		return relpipe.BatchRequest{Jobs: jobs}
	}
	if code := postJSON(t, ts.URL+"/v1/batch", batch(257), nil); code != http.StatusBadRequest {
		t.Fatalf("257-job batch status = %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/v1/batch", batch(256), nil); code != http.StatusOK {
		t.Fatalf("256-job batch status = %d, want 200", code)
	}
	if code := postJSON(t, ts.URL+"/v1/batch", relpipe.BatchRequest{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d, want 400", code)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || doc.Status != "ok" {
		t.Fatalf("healthz = %d %+v", resp.StatusCode, doc)
	}
}

// TestMetricsEndpoint: two identical optimize requests leave the
// request, cache and solve counters and the solve-latency histogram at
// the values operators read from /metrics, read here through the same
// registry the endpoint renders.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	postJSON(t, ts.URL+"/v1/optimize", relpipe.OptimizeRequest{Instance: testInstance(8), Method: "dp"}, nil)
	postJSON(t, ts.URL+"/v1/optimize", relpipe.OptimizeRequest{Instance: testInstance(8), Method: "dp"}, nil)
	for series, want := range map[string]int64{
		`relpipe_requests_total{endpoint="optimize"}`:      2,
		"relpipe_solves_total":                             1,
		"relpipe_cache_hits_total":                         1,
		"relpipe_cache_misses_total":                       1,
		"relpipe_solve_duration_seconds_count":             1,
		`relpipe_solve_duration_seconds_bucket{le="+Inf"}`: 1,
	} {
		if got := seriesSum(t, s.Metrics(), series); got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}
}

func TestCachedRepeatSkipsSolve(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := relpipe.OptimizeRequest{Instance: testInstance(9), Method: "exact", Bounds: relpipe.Bounds{Period: 300}}
	var first, second relpipe.OptimizeResponse
	if code := postJSON(t, ts.URL+"/v1/optimize", req, &first); code != http.StatusOK {
		t.Fatalf("first status = %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/optimize", req, &second); code != http.StatusOK {
		t.Fatalf("second status = %d", code)
	}
	if solves := seriesSum(t, s.Metrics(), "relpipe_solves_total"); solves != 1 {
		t.Fatalf("solves = %d, want 1 (second request must be served from cache)", solves)
	}
	if hits := seriesSum(t, s.Metrics(), "relpipe_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	a, _ := json.Marshal(first)
	b, _ := json.Marshal(second)
	if !bytes.Equal(a, b) {
		t.Fatal("cached response differs from original")
	}
}

func TestCacheKeySeparatesEndpointsAndParams(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	in := testInstance(10)
	postJSON(t, ts.URL+"/v1/optimize", relpipe.OptimizeRequest{Instance: in, Method: "dp"}, nil)
	// Different method, different bounds, different endpoint: all must miss.
	postJSON(t, ts.URL+"/v1/optimize", relpipe.OptimizeRequest{Instance: in, Method: "heur-p", Bounds: relpipe.Bounds{Period: 500}}, nil)
	postJSON(t, ts.URL+"/v1/optimize", relpipe.OptimizeRequest{Instance: in, Method: "dp", Bounds: relpipe.Bounds{Period: 500}}, nil)
	postJSON(t, ts.URL+"/v1/frontier", relpipe.FrontierRequest{Instance: in}, nil)
	if hits := seriesSum(t, s.Metrics(), "relpipe_cache_hits_total"); hits != 0 {
		t.Fatalf("cache hits = %d, want 0 (distinct requests must not collide)", hits)
	}
	if solves := seriesSum(t, s.Metrics(), "relpipe_solves_total"); solves != 4 {
		t.Fatalf("solves = %d, want 4", solves)
	}
}

func TestQueueFullIs429WithRetryAfter(t *testing.T) {
	s := NewServer(Options{Workers: 1, QueueSize: 1})
	defer s.Close()

	block := make(chan struct{})
	started := make(chan struct{})
	blocking := func(body []byte, _ execOpts) (string, solveFunc, error) {
		return string(body), func(relpipe.Options) (any, error) {
			if string(body) == "A" {
				close(started)
			}
			<-block
			return relpipe.ErrorResponse{}, nil
		}, nil
	}
	go s.process(context.Background(), "test", blocking, []byte("A")) // occupies the worker
	<-started
	done := make(chan outcome, 1)
	go func() { done <- s.process(context.Background(), "test", blocking, []byte("B")) }() // fills the queue
	waitFor(t, func() bool { return s.metrics.QueueDepth() == 1 })

	out := s.process(context.Background(), "test", blocking, []byte("C")) // must be shed
	if out.status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", out.status)
	}
	rec := httptest.NewRecorder()
	s.writeOutcome(rec, out)
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	if rejected := seriesSum(t, s.Metrics(), "relpipe_rejected_total"); rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
	close(block)
	if out := <-done; out.status != http.StatusOK {
		t.Fatalf("queued request status = %d", out.status)
	}
}

// TestOversizedBodyRejected: a body of 8 MiB + 1 bytes answers 413; one
// of exactly 8 MiB passes the size check and fails only as a document
// (400).
func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct{ size, want int }{
		{8<<20 + 1, http.StatusRequestEntityTooLarge},
		{8 << 20, http.StatusBadRequest},
	} {
		const frame = `{"instance":""}`
		body := frame[:len(frame)-2] + strings.Repeat("x", tc.size-len(frame)) + frame[len(frame)-2:]
		// A strings.Reader declares its length; a MultiReader makes the
		// client send the body chunked, with no Content-Length at all.
		for name, r := range map[string]io.Reader{
			"declared": strings.NewReader(body),
			"chunked":  io.MultiReader(strings.NewReader(body)),
		} {
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", r)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("%s %d bytes: status = %d, want %d", name, len(body), resp.StatusCode, tc.want)
			}
		}
	}
}

// TestReadBodyPresize: readBody reserves the declared Content-Length up
// front (plus the byte EOF lands in, so an honest body never regrows
// the buffer), but never more than readPresize, whatever the header
// claims; a chunked body, which declares nothing, still reads in full.
func TestReadBodyPresize(t *testing.T) {
	body, err := json.Marshal(relpipe.OptimizeRequest{Instance: testInstance(8)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		length  int64 // declared Content-Length; -1 is chunked
		wantCap int   // 0: only check the body
	}{
		{"declared", int64(len(body)), len(body) + 1},
		{"lying-header", 1 << 40, readPresize + 1},
		{"chunked", -1, 0},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body))
		r.ContentLength = tc.length
		got, status, err := readBody(httptest.NewRecorder(), r)
		if err != nil || status != http.StatusOK || !bytes.Equal(got, body) {
			t.Fatalf("%s: status %d, err %v, body intact %v", tc.name, status, err, bytes.Equal(got, body))
		}
		if tc.wantCap != 0 && cap(got) != tc.wantCap {
			t.Errorf("%s: buffer capacity %d, want %d", tc.name, cap(got), tc.wantCap)
		}
	}
	// The same chunked body end to end: no Content-Length, still solved.
	_, ts := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", io.MultiReader(bytes.NewReader(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked optimize: status = %d, want 200", resp.StatusCode)
	}
}

// TestSimulateUndefinedAggregatesAreZero: with a single data set the
// simulator cannot define SteadyPeriod (it is NaN internally), which
// json.Marshal would reject; the service must answer 200 with 0 instead
// of 500.
func TestSimulateUndefinedAggregatesAreZero(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(51)
	var out relpipe.SimulateResponse
	status := postJSON(t, ts.URL+"/v1/simulate", relpipe.SimulateRequest{
		Instance: in,
		Mapping: relpipe.Mapping{
			Parts: []relpipe.Interval{{First: 0, Last: len(in.Chain) - 1}},
			Procs: [][]int{{0}},
		},
		Period:   1e6,
		DataSets: 1,
	}, &out)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if out.SteadyPeriod != 0 {
		t.Fatalf("SteadyPeriod = %v, want 0 for a single data set", out.SteadyPeriod)
	}
}

// truncatedBody reports an unexpected EOF partway through the declared
// length, as a client that disconnects mid-upload does.
type truncatedBody struct{ read bool }

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.read {
		return 0, io.ErrUnexpectedEOF
	}
	b.read = true
	return copy(p, `{"inst`), nil
}

func TestTrailingDataIs400(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	b, err := json.Marshal(relpipe.OptimizeRequest{Instance: testInstance(8)})
	if err != nil {
		t.Fatal(err)
	}
	// Two concatenated documents: strict decode must reject the body
	// instead of silently solving only the first.
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json",
		bytes.NewReader(append(b, `{"bounds":{"period":1}}`...)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 for trailing data", resp.StatusCode)
	}
}

func TestTruncatedBodyIs400(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	req := httptest.NewRequest("POST", "/v1/optimize", &truncatedBody{})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (not 413) for a truncated upload", rec.Code)
	}
}

// TestTimedOutSolveStillCaches: a solve that outlives the request
// timeout answers 504, but the worker-side completion must land in the
// cache so the next identical request is a hit, not another doomed
// solve.
func TestTimedOutSolveStillCaches(t *testing.T) {
	s := NewServer(Options{RequestTimeout: 10 * time.Millisecond})
	defer s.Close()
	done := make(chan struct{})
	slow := func(body []byte, _ execOpts) (string, solveFunc, error) {
		return "k", func(relpipe.Options) (any, error) {
			defer close(done)
			time.Sleep(100 * time.Millisecond)
			return map[string]int{"x": 1}, nil
		}, nil
	}
	if out := s.process(context.Background(), "slow", slow, nil); out.status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", out.status)
	}
	<-done // the abandoned solve has finished; its Put follows at once
	waitFor(t, func() bool { _, ok := s.cache.Get("slow|k"); return ok })
	fail := func(body []byte, _ execOpts) (string, solveFunc, error) {
		return "k", func(relpipe.Options) (any, error) {
			t.Error("identical request re-solved instead of hitting the cache")
			return nil, nil
		}, nil
	}
	if out := s.process(context.Background(), "slow", fail, nil); out.status != http.StatusOK {
		t.Fatalf("repeat status = %d, want 200 from cache", out.status)
	}
	if got := seriesSum(t, s.Metrics(), "relpipe_solves_total"); got != 1 {
		t.Fatalf("solves = %d, want 1", got)
	}
}

func TestCanonicalHashStability(t *testing.T) {
	a := testInstance(11)
	b := testInstance(11)
	if a.Canonical() != b.Canonical() {
		t.Fatal("identical instances must hash identically")
	}
	c := testInstance(12)
	if a.Canonical() == c.Canonical() {
		t.Fatal("distinct instances must hash differently")
	}
	// A round trip through JSON must preserve the hash (floats encode
	// exactly).
	raw, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back relpipe.Instance
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Canonical() != a.Canonical() {
		t.Fatal("JSON round trip changed the canonical hash")
	}
}
