package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"relpipe"
	"relpipe/internal/jobs"
)

// submitJobHTTP posts a job submission and decodes the accepted status.
func submitJobHTTP(t *testing.T, url string, kind string, request any, client string) relpipe.JobStatus {
	t.Helper()
	raw, err := json.Marshal(request)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(relpipe.JobSubmitRequest{Kind: kind, Request: raw, Client: client})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b := new(bytes.Buffer)
		b.ReadFrom(resp.Body)
		t.Fatalf("job submit = %d: %s", resp.StatusCode, b)
	}
	var st relpipe.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitJob polls a job until terminal.
func waitJob(t *testing.T, url, id string) relpipe.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st := jobStatusHTTP(t, url, id)
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", id, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// syncBody posts a request to a synchronous endpoint and returns the
// raw response body.
func syncBody(t *testing.T, url string, v any) (int, []byte) {
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
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestJobDifferentialAgainstSync is the acceptance differential: for
// optimize (heuristic), adapt, simulate and frontier kinds, at solver
// parallelism 1 and 8, the async job's result document is
// bit-identical to the synchronous endpoint's for the same request, and
// the job ends with all its progress units done. Caching is disabled so
// both paths genuinely solve (the cache would otherwise hand the job
// the sync bytes verbatim).
func TestJobDifferentialAgainstSync(t *testing.T) {
	hom := testInstance(3)
	het := hetInstance(4, 30, 10)
	sol, err := relpipe.Optimize(hom, relpipe.Bounds{}, relpipe.DP)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		kind  string
		path  string
		req   any
		units int64 // restarts, replications or frontier stages
	}{
		{"optimize", "/v1/optimize", relpipe.OptimizeRequest{
			Instance: het, Bounds: relpipe.Bounds{Period: 260},
			Method: "heuristic",
			Search: &relpipe.SearchParams{Restarts: 4, Budget: 2000, Seed: 7},
		}, 4},
		{"adapt", "/v1/adapt", relpipe.AdaptRequest{
			Instance: hom, Policy: "greedy", Horizon: 500,
			LifeScale: 1e5, Replications: 8, Seed: 5,
		}, 8},
		{"simulate", "/v1/simulate", relpipe.SimulateRequest{
			Instance: hom, Mapping: sol.Mapping, Period: sol.Eval.WorstPeriod,
			DataSets: 50, Seed: 5, InjectFailures: true, Replications: 5,
		}, 5},
		{"frontier", "/v1/frontier", relpipe.FrontierRequest{Instance: hom}, 3},
	}
	for _, par := range []int{1, 8} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/P=%d", tc.kind, par), func(t *testing.T) {
				// Independent servers so the job cannot reuse the sync
				// server's cache or flight.
				_, tsSync := newTestServer(t, Options{Workers: 2, CacheSize: -1, SolverParallelism: par})
				srvJobs, tsJobs := newTestServer(t, Options{Workers: 2, CacheSize: -1, SolverParallelism: par})

				code, want := syncBody(t, tsSync.URL+tc.path, tc.req)
				if code != http.StatusOK {
					t.Fatalf("sync = %d: %s", code, want)
				}
				st := submitJobHTTP(t, tsJobs.URL, tc.kind, tc.req, "")
				st = waitJob(t, tsJobs.URL, st.ID)
				if st.State != relpipe.JobSucceeded {
					t.Fatalf("job state = %s: %s", st.State, st.Result)
				}
				if !bytes.Equal(want, st.Result) {
					t.Fatalf("async result differs from sync:\nsync: %s\nasync: %s", want, st.Result)
				}
				if st.Progress != (relpipe.JobProgress{Done: tc.units, Total: tc.units}) {
					t.Fatalf("terminal progress = %+v, want %d/%d", st.Progress, tc.units, tc.units)
				}
				// A job is one logical solve request of its kind.
				if n := seriesSum(t, srvJobs.Metrics(), `relpipe_requests_total{endpoint="`+tc.kind+`"}`); n != 1 {
					t.Fatalf("requests_total{endpoint=%q} = %d, want 1", tc.kind, n)
				}
			})
		}
	}
}

// TestJobSSEMonotonicProgress is the acceptance SSE check: a
// multi-restart search job streams progress events whose done counts
// are monotonically non-decreasing, reach the restart total, and end
// with a done event carrying the result.
func TestJobSSEMonotonicProgress(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, CacheSize: -1, SolverParallelism: 1})
	// A 300-stage chain at the full default budget keeps each restart in
	// the ~100ms range: the SSE stream attaches long before the first
	// restart lands and observes the portfolio complete one restart at a
	// time.
	req := relpipe.OptimizeRequest{
		Instance: hetInstance(9, 300, 12), Bounds: relpipe.Bounds{Period: 800},
		Method: "heuristic",
		Search: &relpipe.SearchParams{Restarts: 8, Budget: 200000, Seed: 11},
	}
	st := submitJobHTTP(t, ts.URL, "optimize", req, "")

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var events []relpipe.JobStatus
	var final relpipe.JobStatus
	gotDone := false
	sc := newSSEScanner(resp.Body)
	for sc.next() {
		var ev relpipe.JobStatus
		if err := json.Unmarshal([]byte(sc.data), &ev); err != nil {
			t.Fatalf("event payload: %v: %s", err, sc.data)
		}
		events = append(events, ev)
		if sc.event == "done" {
			final = ev
			gotDone = true
			break
		}
	}
	if !gotDone {
		t.Fatalf("stream ended without done event (%d events)", len(events))
	}
	if final.State != relpipe.JobSucceeded || len(final.Result) == 0 {
		t.Fatalf("final event = %+v", final)
	}
	last := int64(-1)
	increased := 0
	for i, ev := range events {
		if ev.Progress.Done < last {
			t.Fatalf("progress regressed at event %d: %d after %d", i, ev.Progress.Done, last)
		}
		if ev.Progress.Done > last && last >= 0 {
			increased++
		}
		last = ev.Progress.Done
	}
	if increased == 0 {
		t.Fatal("progress never increased across the stream")
	}
	if final.Progress.Done != 8 || final.Progress.Total != 8 {
		t.Fatalf("final progress = %+v, want 8/8 restarts", final.Progress)
	}
	// The stream must have observed intermediate progress, not only the
	// initial and final snapshots.
	if len(events) < 3 {
		t.Fatalf("only %d events; expected intermediate progress", len(events))
	}
}

// sseScanner is a minimal SSE frame reader for tests.
type sseScanner struct {
	buf         *bytes.Buffer
	src         io.Reader
	event, data string
}

func newSSEScanner(src io.Reader) *sseScanner {
	return &sseScanner{buf: new(bytes.Buffer), src: src}
}

// next reads one event frame (event: + data: lines up to a blank line).
func (s *sseScanner) next() bool {
	s.event, s.data = "", ""
	line := ""
	readLine := func() (string, bool) {
		for {
			if i := bytes.IndexByte(s.buf.Bytes(), '\n'); i >= 0 {
				l := string(s.buf.Next(i + 1))
				return strings.TrimRight(l, "\n"), true
			}
			chunk := make([]byte, 4096)
			n, err := s.src.Read(chunk)
			if n > 0 {
				s.buf.Write(chunk[:n])
				continue
			}
			if err != nil {
				return "", false
			}
		}
	}
	for {
		var ok bool
		line, ok = readLine()
		if !ok {
			return false
		}
		switch {
		case strings.HasPrefix(line, "event:"):
			s.event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			s.data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		case line == "" && s.data != "":
			return true
		}
	}
}

// TestJobCancelThenResubmitDeterminism: cancelling a running job aborts
// it (state cancelled, nothing cached), and re-submitting the identical
// request afterwards produces a result bit-identical to the synchronous
// endpoint — determinism survives cancellation.
func TestJobCancelThenResubmitDeterminism(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, SolverParallelism: 1})
	req := relpipe.OptimizeRequest{
		Instance: hetInstance(13, 80, 10), Bounds: relpipe.Bounds{Period: 200},
		Method: "heuristic",
		Search: &relpipe.SearchParams{Restarts: 8, Budget: 50000, Seed: 17},
	}
	st := submitJobHTTP(t, ts.URL, "optimize", req, "")

	// Cancel while queued or running.
	creq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel = %d", resp.StatusCode)
	}
	st = waitJob(t, ts.URL, st.ID)
	if st.State != relpipe.JobCancelled {
		t.Fatalf("state after cancel = %s", st.State)
	}
	if srv.cache.Len() != 0 {
		t.Fatalf("cancelled job polluted the cache (%d entries)", srv.cache.Len())
	}

	// Re-submit: must complete and match the synchronous answer from an
	// untouched server.
	_, tsSync := newTestServer(t, Options{Workers: 1, CacheSize: -1, SolverParallelism: 1})
	code, want := syncBody(t, tsSync.URL+"/v1/optimize", req)
	if code != http.StatusOK {
		t.Fatalf("sync = %d: %s", code, want)
	}
	st2 := submitJobHTTP(t, ts.URL, "optimize", req, "")
	st2 = waitJob(t, ts.URL, st2.ID)
	if st2.State != relpipe.JobSucceeded {
		t.Fatalf("resubmitted job state = %s: %s", st2.State, st2.Result)
	}
	if !bytes.Equal(want, st2.Result) {
		t.Fatalf("resubmitted result differs from sync:\nsync: %s\nasync: %s", want, st2.Result)
	}
}

// TestJobCancelStopsExactMinCost: DELETE on a running method-exact
// /v1/mincost job stops the partition enumeration itself. The job ends
// cancelled, nothing is cached, and the single worker is free again
// long before the 22-task enumeration could have finished.
func TestJobCancelStopsExactMinCost(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1, SolverParallelism: 1})
	// Uncancelled, this solve takes seconds even on a fast machine.
	pl := relpipe.HomogeneousPlatform(40, 1, 1e-4, 1, 1e-5, 3)
	costs := make([]float64, pl.P())
	for u := range costs {
		costs[u] = float64(1 + u%3)
	}
	req := relpipe.MinCostRequest{
		Instance: relpipe.Instance{Chain: relpipe.RandomChain(11, 22, 1, 10, 1, 5), Platform: pl},
		Costs:    costs, MinReliability: 1 - 1e-8, Method: "exact",
	}
	st := submitJobHTTP(t, ts.URL, "mincost", req, "")
	for st.State != relpipe.JobRunning {
		if st.State.Terminal() {
			t.Fatalf("job ended before it could be cancelled: %+v", st)
		}
		time.Sleep(time.Millisecond)
		st = jobStatusHTTP(t, ts.URL, st.ID)
	}
	creq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st = waitJob(t, ts.URL, st.ID); st.State != relpipe.JobCancelled {
		t.Fatalf("state after cancel = %s: %s", st.State, st.Result)
	}
	if srv.cache.Len() != 0 {
		t.Fatalf("cancelled job polluted the cache (%d entries)", srv.cache.Len())
	}
	// The job's state flips on DELETE, but only a solver that observes
	// the cancellation hands the worker back to this quick solve.
	if code, body := syncBody(t, ts.URL+"/v1/optimize", relpipe.OptimizeRequest{Instance: testInstance(5), Method: "dp"}); code != http.StatusOK {
		t.Fatalf("follow-up solve = %d: %s", code, body)
	}
	if lag := time.Since(start); lag > 2*time.Second {
		t.Fatalf("worker busy for %v after the cancel, want prompt", lag)
	}
}

// jobStatusHTTP fetches a job's current status.
func jobStatusHTTP(t *testing.T, url, id string) relpipe.JobStatus {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st relpipe.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestJobCacheDedupInstantCompletion: a job for a key already in the
// result cache completes instantly (terminal at submit, marked cached,
// no extra solve).
func TestJobCacheDedupInstantCompletion(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2})
	in := testInstance(21)
	req := relpipe.OptimizeRequest{Instance: in, Method: "dp"}

	code, want := syncBody(t, ts.URL+"/v1/optimize", req)
	if code != http.StatusOK {
		t.Fatalf("sync = %d", code)
	}
	solves := seriesSum(t, srv.Metrics(), "relpipe_solves_total")

	st := submitJobHTTP(t, ts.URL, "optimize", req, "")
	if st.State != relpipe.JobSucceeded || !st.Cached {
		t.Fatalf("cached submit = %+v, want succeeded+cached", st)
	}
	if !bytes.Equal(want, st.Result) {
		t.Fatalf("cached job result differs from sync")
	}
	if got := seriesSum(t, srv.Metrics(), "relpipe_solves_total"); got != solves {
		t.Fatalf("cached job ran a solve (%d -> %d)", solves, got)
	}
	// And the reverse direction: a job's solve lands in the cache for
	// the synchronous endpoint.
	req2 := relpipe.OptimizeRequest{Instance: testInstance(22), Method: "dp"}
	st2 := submitJobHTTP(t, ts.URL, "optimize", req2, "")
	st2 = waitJob(t, ts.URL, st2.ID)
	solves = seriesSum(t, srv.Metrics(), "relpipe_solves_total")
	code, got := syncBody(t, ts.URL+"/v1/optimize", req2)
	if code != http.StatusOK || !bytes.Equal(got, st2.Result) {
		t.Fatalf("sync after job: code %d, body mismatch %v", code, !bytes.Equal(got, st2.Result))
	}
	if seriesSum(t, srv.Metrics(), "relpipe_solves_total") != solves {
		t.Fatal("sync request re-solved a job-cached key")
	}
}

// TestJobCapsReturn429WithRetryAfter: both job-store caps answer 429
// and carry a Retry-After header (the backpressure satellite).
func TestJobCapsReturn429WithRetryAfter(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 1, MaxJobsPerClient: 1, MaxJobs: 2, CacheSize: -1,
	})
	// Long enough (300-stage chain, full budget, one worker) that every
	// submission below happens while the first job is still live.
	slow := relpipe.OptimizeRequest{
		Instance: hetInstance(31, 300, 12), Bounds: relpipe.Bounds{Period: 800},
		Method: "heuristic",
		Search: &relpipe.SearchParams{Restarts: 8, Budget: 200000, Seed: 1},
	}
	first := submitJobHTTP(t, ts.URL, "optimize", slow, "capped")

	raw, _ := json.Marshal(slow)
	body, _ := json.Marshal(relpipe.JobSubmitRequest{Kind: "optimize", Request: raw, Client: "capped"})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("per-client cap = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("per-client-cap 429 missing Retry-After")
	}

	// Fill the global store with a second client, then overflow it.
	slow2 := slow
	slow2.Search = &relpipe.SearchParams{Restarts: 8, Budget: 200000, Seed: 2}
	second := submitJobHTTP(t, ts.URL, "optimize", slow2, "other")
	slow3 := slow
	slow3.Search = &relpipe.SearchParams{Restarts: 8, Budget: 200000, Seed: 3}
	raw3, _ := json.Marshal(slow3)
	body3, _ := json.Marshal(relpipe.JobSubmitRequest{Kind: "optimize", Request: raw3, Client: "third"})
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body3))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("store cap = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("store-cap 429 missing Retry-After")
	}
	// Cancel the queued second job (it never got a pool slot) so test
	// cleanup doesn't wait out its full solve.
	creq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+second.ID, nil)
	if cresp, err := http.DefaultClient.Do(creq); err == nil {
		cresp.Body.Close()
	}
	// Sanity: the first job still completes (jobs wait for pool slots).
	st := waitJob(t, ts.URL, first.ID)
	if st.State != relpipe.JobSucceeded {
		t.Fatalf("first job = %s", st.State)
	}
}

// TestJobBatchKind: a whole batch document runs as one job with
// per-item progress and an ordered BatchResponse result.
func TestJobBatchKind(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	mkJob := func(seed uint64) relpipe.BatchJob {
		b, _ := json.Marshal(relpipe.OptimizeRequest{Instance: testInstance(seed), Method: "dp"})
		return relpipe.BatchJob{Kind: "optimize", Request: b}
	}
	batch := relpipe.BatchRequest{Jobs: []relpipe.BatchJob{mkJob(41), mkJob(42), mkJob(43)}}
	st := submitJobHTTP(t, ts.URL, "batch", batch, "")
	st = waitJob(t, ts.URL, st.ID)
	if st.State != relpipe.JobSucceeded {
		t.Fatalf("batch job = %s: %s", st.State, st.Result)
	}
	if st.Progress.Done != 3 || st.Progress.Total != 3 {
		t.Fatalf("batch progress = %+v, want 3/3", st.Progress)
	}
	var br relpipe.BatchResponse
	if err := json.Unmarshal(st.Result, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("batch results = %d", len(br.Results))
	}
	for i, r := range br.Results {
		if r.Status != http.StatusOK {
			t.Fatalf("batch item %d status = %d: %s", i, r.Status, r.Body)
		}
	}
}

// TestJobServerCloseDrains: Server.Close returns only after in-flight
// jobs reached a terminal state, and their statuses stay queryable
// (the service-level drain contract behind cmd/serve's -jobs-dump).
func TestJobServerCloseDrains(t *testing.T) {
	srv := NewServer(Options{Workers: 1, CacheSize: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req := relpipe.OptimizeRequest{
		Instance: hetInstance(51, 60, 10), Bounds: relpipe.Bounds{Period: 200},
		Method: "heuristic",
		Search: &relpipe.SearchParams{Restarts: 6, Budget: 20000, Seed: 1},
	}
	st := submitJobHTTP(t, ts.URL, "optimize", req, "")

	srv.Close()

	j, ok := srv.Jobs().Get(st.ID)
	if !ok {
		t.Fatal("job evicted during shutdown")
	}
	got := j.Status()
	if !got.State.Terminal() {
		t.Fatalf("job not drained to terminal state: %s", got.State)
	}
	if got.State != jobs.StateSucceeded {
		t.Fatalf("drained job = %s, want succeeded", got.State)
	}
	// New submissions after Close are refused with 503.
	raw, _ := json.Marshal(req)
	body, _ := json.Marshal(relpipe.JobSubmitRequest{Kind: "optimize", Request: raw})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after Close = %d, want 503", resp.StatusCode)
	}
}

// TestJobUnknownKindAndBadRequest: submit-time validation fails fast.
func TestJobUnknownKindAndBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body, _ := json.Marshal(relpipe.JobSubmitRequest{Kind: "bogus", Request: []byte(`{}`)})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind = %d", resp.StatusCode)
	}
	body, _ = json.Marshal(relpipe.JobSubmitRequest{Kind: "optimize", Request: []byte(`{"nope":1}`)})
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid request = %d", resp.StatusCode)
	}
	// Unknown job id → 404 on every job route.
	for _, m := range []string{http.MethodGet, http.MethodDelete} {
		req, _ := http.NewRequest(m, ts.URL+"/v1/jobs/doesnotexist", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s missing job = %d", m, resp.StatusCode)
		}
	}
}
