package service

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"relpipe"
	"relpipe/internal/fleet"
	"relpipe/internal/obs"
	"relpipe/internal/search"
)

// fleetTestSetup optimizes a mapping for the shared small instance and
// returns the register request every fleet endpoint test starts from.
// The period bound carries 4x slack over the optimized worst case so a
// remap has room to re-replicate on the survivors.
func fleetTestSetup(t *testing.T, id string) relpipe.FleetRegisterRequest {
	t.Helper()
	in := testInstance(1)
	res, _, err := search.Optimize(in.Chain, in.Platform, search.Options{Restarts: 2, Budget: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev := res.Ev
	return relpipe.FleetRegisterRequest{
		ID:             id,
		Instance:       in,
		Mapping:        res.M,
		Bounds:         relpipe.Bounds{Period: 4 * ev.WorstPeriod},
		MinReliability: 1e-12,
		Mission:        1e6,
		Search:         &relpipe.SearchParams{Restarts: 2, Budget: 500, Seed: 1},
	}
}

// tickUntil drives the controller until cond holds (the background
// real-clock loop also ticks; manual ticks just make tests fast).
func tickUntil(t *testing.T, s *Server, id string, cond func(fleet.Status) bool) fleet.Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s.Fleet().Tick()
		if st, ok := s.Fleet().Status(id); ok && cond(st) {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	st, _ := s.Fleet().Status(id)
	t.Fatalf("condition not reached; status %+v", st)
	return fleet.Status{}
}

// TestFleetLifecycle walks the whole deployment lifecycle over HTTP:
// register (201), list, status, feed a crash report, observe the
// autonomous warm-started remap execute as a job under the fleet
// client id and get adopted, then deregister.
func TestFleetLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := fleetTestSetup(t, "web")

	var st relpipe.FleetDeployment
	b, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/fleet/deployments", "application/json", strings.NewReader(string(b)))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || st.ID != "web" || st.Reliability <= 0 {
		t.Fatalf("register = %d %+v", resp.StatusCode, st)
	}
	// Duplicate id is a conflict.
	if code := postJSON(t, ts.URL+"/v1/fleet/deployments", req, nil); code != http.StatusConflict {
		t.Fatalf("duplicate register = %d, want 409", code)
	}

	var list relpipe.FleetListResponse
	if code := getJSONDoc(t, ts.URL+"/v1/fleet/deployments", &list); code != http.StatusOK || len(list.Deployments) != 1 {
		t.Fatalf("list = %d %+v", code, list)
	}

	// Crash a processor that holds a replica; the controller must
	// submit exactly one warm-started remap and adopt its result.
	victim := st.Mapping.Procs[0][0]
	code := postJSON(t, ts.URL+"/v1/fleet/deployments/web/events",
		relpipe.FleetEventsRequest{Events: []relpipe.FleetEvent{{Type: fleet.EventCrash, Proc: victim}}}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("ingest = %d, want 202", code)
	}
	final := tickUntil(t, s, "web", func(st fleet.Status) bool { return st.RemapsAdopted >= 1 })
	if final.Remaps != 1 || final.Degraded {
		t.Fatalf("after adoption: %+v", final)
	}
	for _, u := range final.Mapping.Procs {
		for _, proc := range u {
			if proc == victim {
				t.Fatalf("adopted mapping still uses dead processor %d", victim)
			}
		}
	}
	// The remap executed as a regular async job under the fleet client.
	fleetJobs := s.Jobs().Snapshot("fleet")
	if len(fleetJobs) != 1 || fleetJobs[0].Kind != "fleet-remap" {
		t.Fatalf("fleet jobs = %+v", fleetJobs)
	}

	var got relpipe.FleetDeployment
	if code := getJSONDoc(t, ts.URL+"/v1/fleet/deployments/web", &got); code != http.StatusOK || got.RemapsAdopted != 1 {
		t.Fatalf("status = %d %+v", code, got)
	}

	dreq, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/fleet/deployments/web", nil)
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("deregister = %d", dresp.StatusCode)
	}
	if code := getJSONDoc(t, ts.URL+"/v1/fleet/deployments/web", nil); code != http.StatusNotFound {
		t.Fatalf("status after deregister = %d, want 404", code)
	}
}

// TestFleetEventStream covers the SSE decision stream: an initial
// "status" event, then every decision from the requested sequence on.
func TestFleetEventStream(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := fleetTestSetup(t, "sse")
	if code := postJSON(t, ts.URL+"/v1/fleet/deployments", req, nil); code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	st, _ := s.Fleet().Status("sse")
	postJSON(t, ts.URL+"/v1/fleet/deployments/sse/events",
		relpipe.FleetEventsRequest{Events: []relpipe.FleetEvent{{Type: fleet.EventCrash, Proc: st.Mapping.Procs[0][0]}}}, nil)
	tickUntil(t, s, "sse", func(st fleet.Status) bool { return st.RemapsAdopted >= 1 })

	resp, err := http.Get(ts.URL + "/v1/fleet/deployments/sse/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var events []string
	var sawAdopt bool
	for sc.Scan() && !sawAdopt {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			events = append(events, ev)
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && events[len(events)-1] == "decision" {
			var d relpipe.FleetDecision
			if err := json.Unmarshal([]byte(data), &d); err != nil {
				t.Fatalf("bad decision payload: %v", err)
			}
			if d.Kind == fleet.DecisionAdopt {
				sawAdopt = true
			}
		}
	}
	if len(events) == 0 || events[0] != "status" {
		t.Fatalf("stream events = %v, want leading status", events)
	}
	if !sawAdopt {
		t.Fatalf("no remap-adopted decision on the stream; events = %v", events)
	}
}

// TestFleetClientIsolation is the jobs-store pressure test: fleet
// remaps count against the dedicated fleet client id, so a controller
// that storms into the per-client cap gets its submission rejected —
// breaker open, remap-failed decision — while an interactive client's
// jobs are neither blocked nor evicted.
func TestFleetClientIsolation(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxJobsPerClient: 1})

	// Occupy the single worker so admitted remap jobs stay live
	// (blocked waiting for a pool slot) instead of completing.
	block := make(chan struct{})
	release := func() { close(block) }
	released := false
	t.Cleanup(func() {
		if !released {
			release()
		}
	})
	go s.pool.DoWait(context.Background(), func() (any, error) { <-block; return nil, nil })

	for _, id := range []string{"d1", "d2"} {
		req := fleetTestSetup(t, id)
		if code := postJSON(t, ts.URL+"/v1/fleet/deployments", req, nil); code != http.StatusCreated {
			t.Fatalf("register %s = %d", id, code)
		}
	}

	// Crash d1: its remap job is admitted (1 live job = the fleet
	// client's whole cap) and blocks on the occupied pool.
	st1, _ := s.Fleet().Status("d1")
	postJSON(t, ts.URL+"/v1/fleet/deployments/d1/events",
		relpipe.FleetEventsRequest{Events: []relpipe.FleetEvent{{Type: fleet.EventCrash, Proc: st1.Mapping.Procs[0][0]}}}, nil)
	tickUntil(t, s, "d1", func(st fleet.Status) bool { return st.RemapInFlight })

	// Crash d2: its remap submission hits the per-client cap — 429 at
	// the engine, breaker-open + remap-failed at the controller.
	st2, _ := s.Fleet().Status("d2")
	postJSON(t, ts.URL+"/v1/fleet/deployments/d2/events",
		relpipe.FleetEventsRequest{Events: []relpipe.FleetEvent{{Type: fleet.EventCrash, Proc: st2.Mapping.Procs[0][0]}}}, nil)
	st2 = tickUntil(t, s, "d2", func(st fleet.Status) bool { return st.RemapsFailed >= 1 })
	if !st2.BreakerOpen || st2.Remaps != 0 {
		t.Fatalf("d2 after cap rejection: %+v", st2)
	}
	var failed *fleet.Decision
	for i := range st2.Decisions {
		if st2.Decisions[i].Kind == fleet.DecisionRemapFailed {
			failed = &st2.Decisions[i]
		}
	}
	if failed == nil || !strings.Contains(failed.Reason, "per-client live job cap") {
		t.Fatalf("no cap-rejection decision; decisions = %+v", st2.Decisions)
	}

	// The interactive side is untouched: a user job is admitted under
	// its own client id and nothing of theirs was evicted.
	body := fmt.Sprintf(`{"kind":"frontier","client":"alice","request":{"instance":%s}}`,
		mustJSON(t, testInstance(1)))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job relpipe.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("interactive submit during fleet storm = %d, want 202", resp.StatusCode)
	}
	if _, ok := s.Jobs().Get(job.ID); !ok {
		t.Fatalf("interactive job %s evicted", job.ID)
	}

	// Release the pool so everything drains and d1's remap completes.
	released = true
	release()
	tickUntil(t, s, "d1", func(st fleet.Status) bool { return !st.RemapInFlight })
}

// crashFirstReplica registers req, reports a crash of the processor
// hosting its first replica and returns the fleet job of the remap that
// follows, once it is running.
func crashFirstReplica(t *testing.T, s *Server, url string, req relpipe.FleetRegisterRequest) relpipe.JobStatus {
	t.Helper()
	if code := postJSON(t, url+"/v1/fleet/deployments", req, nil); code != http.StatusCreated {
		t.Fatalf("register = %d", code)
	}
	code := postJSON(t, url+"/v1/fleet/deployments/"+req.ID+"/events",
		relpipe.FleetEventsRequest{Events: []relpipe.FleetEvent{{Type: fleet.EventCrash, Proc: req.Mapping.Procs[0][0]}}}, nil)
	if code != http.StatusAccepted {
		t.Fatalf("ingest = %d, want 202", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		s.Fleet().Tick()
		if js := s.Jobs().Snapshot(fleetClient); len(js) == 1 && js[0].State != relpipe.JobQueued {
			return relpipe.JobStatus(js[0])
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no running remap job; fleet jobs = %+v", s.Jobs().Snapshot(fleetClient))
	return relpipe.JobStatus{}
}

// TestFleetRemapJobProgressAndTrace: a remap job is observed like any
// other search job. Its restarts are the job's progress, and its search
// stages land in the job's trace and in the stage histogram.
func TestFleetRemapJobProgressAndTrace(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	req := fleetTestSetup(t, "web")
	job := crashFirstReplica(t, s, ts.URL, req)
	job = waitJob(t, ts.URL, job.ID)
	restarts := int64(req.Search.Restarts)
	if job.State != relpipe.JobSucceeded || job.Progress != (relpipe.JobProgress{Done: restarts, Total: restarts}) {
		t.Fatalf("remap job = %s with progress %+v, want succeeded with %d/%d", job.State, job.Progress, restarts, restarts)
	}
	code, body := getBody(t, ts.URL+"/debug/traces?id="+job.TraceID)
	if code != http.StatusOK {
		t.Fatalf("GET /debug/traces?id= = %d", code)
	}
	var doc struct {
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 1 {
		t.Fatalf("traces = %+v", doc.Traces)
	}
	var spans []string
	for _, sp := range doc.Traces[0].Spans {
		spans = append(spans, sp.Name)
	}
	if !slices.Contains(spans, "search.anneal") {
		t.Fatalf("remap trace spans = %v, want a search.anneal span", spans)
	}
	if n := seriesSum(t, s.Metrics(), `relpipe_solver_stage_duration_seconds_count{stage="search.anneal"}`); n != 1 {
		t.Fatalf("search.anneal stage observations = %d, want 1", n)
	}
}

// TestFleetRemapWithinCaps: a deployment registered without search
// knobs remaps with the search defaults, kept within the server's caps:
// under a restart cap of 1 its remap job runs one restart, not the
// default 8.
func TestFleetRemapWithinCaps(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxSearchRestarts: 1, MaxSearchBudget: 400})
	req := fleetTestSetup(t, "web")
	req.Search = nil
	job := waitJob(t, ts.URL, crashFirstReplica(t, s, ts.URL, req).ID)
	if job.State != relpipe.JobSucceeded || job.Progress != (relpipe.JobProgress{Done: 1, Total: 1}) {
		t.Fatalf("remap job = %s with progress %+v, want succeeded with 1/1", job.State, job.Progress)
	}
	if n := seriesSum(t, s.Metrics(), `relpipe_solver_stage_units_total{stage="search.anneal"}`); n > 400 {
		t.Fatalf("remap annealed %d iterations, caps allow 400", n)
	}
}

// TestFleetRemapJobCancel: cancelling a running remap job stops its
// search. The job ends cancelled, and the controller logs remap-failed
// and keeps the degraded mapping instead of adopting.
func TestFleetRemapJobCancel(t *testing.T) {
	const budget = 1 << 30 // hours of annealing unless cancelled
	s, ts := newTestServer(t, Options{MaxSearchBudget: budget})
	req := fleetTestSetup(t, "slow")
	req.Search = &relpipe.SearchParams{Restarts: 1, Budget: budget, Seed: 1}
	job := crashFirstReplica(t, s, ts.URL, req)

	dreq, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(dreq)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for !job.State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled remap job still %s after 10s", job.State)
		}
		time.Sleep(5 * time.Millisecond)
		job = jobStatusHTTP(t, ts.URL, job.ID)
	}
	if job.State != relpipe.JobCancelled {
		t.Fatalf("cancelled remap job ended %s", job.State)
	}
	st := tickUntil(t, s, "slow", func(st fleet.Status) bool { return !st.RemapInFlight })
	if st.RemapsFailed != 1 || st.RemapsAdopted != 0 || !st.Degraded {
		t.Fatalf("after a cancelled remap: %+v", st)
	}
	if !slices.ContainsFunc(st.Decisions, func(d fleet.Decision) bool { return d.Kind == fleet.DecisionRemapFailed }) {
		t.Fatalf("no remap-failed decision; decisions = %+v", st.Decisions)
	}
}

// TestFleetValidation covers the error mapping of the fleet routes.
func TestFleetValidation(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	if code := getJSONDoc(t, ts.URL+"/v1/fleet/deployments/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown status = %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/v1/fleet/deployments/nope/events",
		relpipe.FleetEventsRequest{Events: []relpipe.FleetEvent{{Type: fleet.EventHeartbeat, Proc: 0}}}, nil); code != http.StatusNotFound {
		t.Fatalf("unknown ingest = %d, want 404", code)
	}
	if code := postJSON(t, ts.URL+"/v1/fleet/deployments",
		relpipe.FleetRegisterRequest{ID: "x"}, nil); code != http.StatusBadRequest {
		t.Fatalf("invalid register = %d, want 400", code)
	}
	// The search knobs pass the same cap check as the sync endpoints.
	for _, sp := range []relpipe.SearchParams{{Restarts: 1 << 20}, {Budget: -1}} {
		req := fleetTestSetup(t, "caps")
		req.Search = &sp
		if code := postJSON(t, ts.URL+"/v1/fleet/deployments", req, nil); code != http.StatusBadRequest {
			t.Fatalf("search %+v register = %d, want 400", sp, code)
		}
	}
	req := fleetTestSetup(t, "events")
	if code := postJSON(t, ts.URL+"/v1/fleet/deployments", req, nil); code != http.StatusCreated {
		t.Fatal("register failed")
	}
	if code := postJSON(t, ts.URL+"/v1/fleet/deployments/events/events",
		relpipe.FleetEventsRequest{Events: []relpipe.FleetEvent{{Type: fleet.EventCrash, Proc: 99}}}, nil); code != http.StatusBadRequest {
		t.Fatal("out-of-range proc accepted")
	}
	if code := postJSON(t, ts.URL+"/v1/fleet/deployments/events/events",
		relpipe.FleetEventsRequest{}, nil); code != http.StatusBadRequest {
		t.Fatal("empty event batch accepted")
	}
	_ = s
}

// TestFleetDisabled verifies -fleet=false removes the routes entirely.
func TestFleetDisabled(t *testing.T) {
	s, ts := newTestServer(t, Options{DisableFleet: true})
	if s.Fleet() != nil {
		t.Fatal("controller constructed despite DisableFleet")
	}
	if code := getJSONDoc(t, ts.URL+"/v1/fleet/deployments", nil); code != http.StatusNotFound {
		t.Fatalf("fleet route with fleet disabled = %d, want 404", code)
	}
}

// TestReadyz pins the liveness/readiness split: /healthz stays 200
// through a drain (pure liveness), /readyz flips to 503 the moment
// shutdown begins.
func TestReadyz(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	var doc struct {
		Status string `json:"status"`
	}
	if code := getJSONDoc(t, ts.URL+"/readyz", &doc); code != http.StatusOK || doc.Status != "ok" {
		t.Fatalf("readyz before shutdown = %d %+v", code, doc)
	}
	s.BeginShutdown()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || doc.Status != "draining" {
		t.Fatalf("readyz during drain = %d %+v, want 503 draining", resp.StatusCode, doc)
	}
	if code := getJSONDoc(t, ts.URL+"/healthz", &doc); code != http.StatusOK || doc.Status != "ok" {
		t.Fatalf("healthz during drain = %d %+v, want 200 ok", code, doc)
	}
}

// getJSONDoc GETs url and decodes the body into out when the answer is
// 200, returning the status code.
func getJSONDoc(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
