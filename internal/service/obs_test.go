package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"relpipe"
	"relpipe/internal/obs"
)

// getBody GETs url and returns (status, body).
func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return resp.StatusCode, sb.String()
}

// seriesSum renders m's Prometheus exposition and sums the samples that
// match want: a sample name as exposed (a counter, or a histogram's
// _count or _sum), summed over its label sets, or one full series
// (`relpipe_cluster_fallbacks_total{peer="http://..."}`). Tests read
// counters only this way, so a renamed series breaks the test instead of
// the scrapers that read /metrics.
func seriesSum(t testing.TB, m *Metrics, want string) int64 {
	t.Helper()
	var buf bytes.Buffer
	m.Registry().WritePrometheus(&buf)
	var sum float64
	for _, line := range strings.Split(buf.String(), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		series, value := line[:sp], line[sp+1:]
		if name, _, _ := strings.Cut(series, "{"); name != want && series != want {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("series %s: %v", series, err)
		}
		sum += v
	}
	return int64(sum)
}

func TestPrometheusEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	postJSON(t, ts.URL+"/v1/optimize", relpipe.OptimizeRequest{Instance: testInstance(21), Method: "dp"}, nil)
	postJSON(t, ts.URL+"/v1/optimize", relpipe.OptimizeRequest{Instance: testInstance(21), Method: "dp"}, nil)

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE relpipe_http_requests_total counter",
		`relpipe_http_requests_total{endpoint="/v1/optimize",code="200"} 2`,
		"# TYPE relpipe_http_request_duration_seconds histogram",
		`relpipe_http_request_duration_seconds_bucket{endpoint="/v1/optimize",le="+Inf"} 2`,
		`relpipe_http_request_duration_seconds_count{endpoint="/v1/optimize"} 2`,
		"# TYPE relpipe_solves_total counter",
		"relpipe_solves_total 1",
		"relpipe_cache_hits_total 1",
		"relpipe_cache_misses_total 1",
		"relpipe_cache_entries 1",
		"# TYPE relpipe_jobs gauge",
		`relpipe_jobs{state="queued"} 0`,
		`relpipe_jobs{state="running"} 0`,
		`relpipe_jobs{state="terminal"} 0`,
		"relpipe_queue_depth 0",
		"# TYPE relpipe_solver_stage_duration_seconds histogram",
		`relpipe_solver_stage_duration_seconds_count{stage="solve.dp"} 1`,
		"relpipe_traces_recorded_total",
		`relpipe_requests_total{endpoint="optimize"} 2`,
		"relpipe_solve_duration_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// /metrics is the only counter read path: the retired JSON document
	// is gone.
	if code, _ := getBody(t, ts.URL+"/metrics.json"); code != http.StatusNotFound {
		t.Fatalf("GET /metrics.json = %d, want 404", code)
	}
}

func TestTraceHeaderAndDebugTraces(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	in := testInstance(22)
	b, err := json.Marshal(relpipe.OptimizeRequest{Instance: in, Method: "dp"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tid := resp.Header.Get(relpipe.TraceHeader)
	if tid == "" {
		t.Fatal("/v1/optimize response missing X-Trace-Id")
	}

	code, body := getBody(t, ts.URL+"/debug/traces?id="+tid)
	if code != http.StatusOK {
		t.Fatalf("GET /debug/traces?id= = %d", code)
	}
	var doc struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 1 || doc.Traces[0].TraceID != tid {
		t.Fatalf("traces = %+v", doc.Traces)
	}
	tr := doc.Traces[0]
	if tr.Root != "POST /v1/optimize" {
		t.Fatalf("root span = %q", tr.Root)
	}
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
		if sp.TraceID != tid {
			t.Fatalf("span %q carries trace %q, want %q", sp.Name, sp.TraceID, tid)
		}
		if sp.End.Before(sp.Start) {
			t.Fatalf("span %q ends before it starts", sp.Name)
		}
	}
	for _, want := range []string{"POST /v1/optimize", "cache", "queue.wait", "solve", "marshal", "solve.dp"} {
		if !names[want] {
			t.Errorf("trace missing span %q (have %v)", want, tr.Spans)
		}
	}

	// Unknown trace IDs are 404; the bare listing includes our trace.
	if code, _ := getBody(t, ts.URL+"/debug/traces?id=deadbeef"); code != http.StatusNotFound {
		t.Fatalf("unknown trace id = %d, want 404", code)
	}
	code, body = getBody(t, ts.URL+"/debug/traces")
	if code != http.StatusOK || !strings.Contains(body, tid) {
		t.Fatalf("GET /debug/traces = %d, listing contains trace: %v", code, strings.Contains(body, tid))
	}
}

// TestTraceDisabled: without a recorder nothing mints trace IDs, so a
// /v1 response carries no X-Trace-Id and a job status no traceId
// (TestTraceHeaderAndDebugTraces and TestAsyncJobCarriesTraceID pin
// both with one).
func TestTraceDisabled(t *testing.T) {
	_, ts := newTestServer(t, Options{TraceCapacity: -1})
	req := relpipe.OptimizeRequest{Instance: testInstance(23), Method: "dp"}
	code, _, hdr := postRaw(t, ts.URL+"/v1/optimize", mustMarshal(t, req))
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if tid, ok := hdr[relpipe.TraceHeader]; ok {
		t.Fatalf("disabled recorder: response carries X-Trace-Id %q", tid)
	}
	st := submitJobHTTP(t, ts.URL, "optimize", req, "c")
	if st.TraceID != "" {
		t.Fatalf("disabled recorder: job status carries traceId %q", st.TraceID)
	}
	if st = waitJob(t, ts.URL, st.ID); st.State != relpipe.JobSucceeded {
		t.Fatalf("untraced job state = %q", st.State)
	}
	code, body := getBody(t, ts.URL+"/debug/traces")
	if code != http.StatusOK || !strings.Contains(body, `"traces":[]`) {
		t.Fatalf("disabled recorder: %d %q", code, body)
	}
}

func TestAsyncJobCarriesTraceID(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := relpipe.OptimizeRequest{Instance: testInstance(24), Method: "dp"}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(relpipe.JobSubmitRequest{Kind: "optimize", Request: raw})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	var st relpipe.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	if st.TraceID == "" {
		t.Fatal("job status missing traceId")
	}
	// Wait for the job to finish, then its trace must be recorded under
	// the advertised ID with the job root span.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := getBody(t, ts.URL+"/v1/jobs/"+st.ID)
		if code != http.StatusOK {
			t.Fatalf("job status = %d", code)
		}
		var cur relpipe.JobStatus
		if err := json.Unmarshal([]byte(body), &cur); err != nil {
			t.Fatal(err)
		}
		if cur.State.Terminal() {
			if cur.State != relpipe.JobSucceeded {
				t.Fatalf("job state = %q", cur.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
	code, body := getBody(t, ts.URL+"/debug/traces?id="+st.TraceID)
	if code != http.StatusOK {
		t.Fatalf("job trace lookup = %d", code)
	}
	if !strings.Contains(body, `"job optimize"`) {
		t.Fatalf("job trace missing root span: %s", body)
	}
}

func TestPprofDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, p := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/profile"} {
		code, _ := getBody(t, ts.URL+p)
		if code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404 with pprof disabled", p, code)
		}
	}
}

func TestPprofEnabled(t *testing.T) {
	_, ts := newTestServer(t, Options{EnablePprof: true})
	code, body := getBody(t, ts.URL+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/cmdline = %d", code)
	}
	_ = body
}

func TestEndpointLabelBoundsCardinality(t *testing.T) {
	cases := map[string]string{
		"/v1/optimize":                   "/v1/optimize",
		"/v1/jobs":                       "/v1/jobs",
		"/v1/jobs/abc123":                "/v1/jobs",
		"/v1/jobs/abc/events":            "/v1/jobs",
		"/v1/fleet/deployments":          "/v1/fleet",
		"/v1/fleet/deployments/x/events": "/v1/fleet",
		"/healthz":                       "/healthz",
		"/readyz":                        "/readyz",
		"/metrics":                       "/metrics",
		"/metrics.json":                  "other",
		"/debug/traces":                  "/debug/traces",
		"/debug/pprof/heap":              "/debug/pprof",
		"/no/such/path":                  "other",
		"/v1/unknown":                    "other",
	}
	for path, want := range cases {
		if got := endpointLabel(path); got != want {
			t.Errorf("endpointLabel(%q) = %q, want %q", path, got, want)
		}
	}
}

// TestTraceRecorderBound exercises eviction through the service: with a
// capacity-2 recorder, three requests leave exactly the two newest
// traces stored.
func TestTraceRecorderBound(t *testing.T) {
	_, ts := newTestServer(t, Options{TraceCapacity: 2})
	for i := 0; i < 3; i++ {
		in := testInstance(uint64(30 + i))
		code := postJSON(t, ts.URL+"/v1/optimize", relpipe.OptimizeRequest{Instance: in, Method: "dp"}, nil)
		if code != http.StatusOK {
			t.Fatalf("request %d status = %d", i, code)
		}
	}
	code, body := getBody(t, ts.URL+"/debug/traces")
	if code != http.StatusOK {
		t.Fatalf("GET /debug/traces = %d", code)
	}
	var doc struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 2 {
		t.Fatalf("stored traces = %d, want 2", len(doc.Traces))
	}
	if !doc.Traces[0].Start.After(doc.Traces[1].Start) && !doc.Traces[0].Start.Equal(doc.Traces[1].Start) {
		t.Fatal("traces not newest-first")
	}
}

// TestDedupWaitSpan drives two concurrent identical requests and checks
// the follower's trace records the dedup.wait span.
func TestDedupWaitSpan(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	slow := func(body []byte, _ execOpts) (string, solveFunc, error) {
		return "k", func(relpipe.Options) (any, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return map[string]int{"x": 1}, nil
		}, nil
	}
	leaderDone := make(chan outcome, 1)
	followerDone := make(chan outcome, 1)
	lctx, _ := s.recorder.StartTrace(t.Context(), "leader")
	fctx, froot := s.recorder.StartTrace(t.Context(), "follower")
	go func() { leaderDone <- s.process(lctx, "slow", slow, nil) }()
	<-started
	go func() { followerDone <- s.process(fctx, "slow", slow, nil) }()
	// Give the follower time to join the flight, then release.
	time.Sleep(20 * time.Millisecond)
	close(release)
	if out := <-leaderDone; out.status != http.StatusOK {
		t.Fatalf("leader status = %d", out.status)
	}
	if out := <-followerDone; out.status != http.StatusOK {
		t.Fatalf("follower status = %d", out.status)
	}
	fid := obs.TraceIDFrom(fctx)
	froot.End()
	tr, ok := s.recorder.Find(fid)
	if !ok {
		t.Fatal("follower trace not recorded")
	}
	var sawDedup bool
	for _, sp := range tr.Spans {
		if sp.Name == "dedup.wait" {
			sawDedup = true
		}
	}
	if !sawDedup {
		t.Fatalf("follower trace missing dedup.wait span: %+v", tr.Spans)
	}
}
