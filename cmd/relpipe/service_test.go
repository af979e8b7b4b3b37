package main

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"relpipe"
	"relpipe/internal/clitest"
	"relpipe/internal/search"
)

func TestJobsSubmitWaitStatusList(t *testing.T) {
	url, _ := clitest.StartService(t)
	req := clitest.WriteJSON(t, t.TempDir(), "req.json", relpipe.OptimizeRequest{
		Instance: relpipe.Instance{
			Chain:    relpipe.RandomChain(1, 8, 1, 100, 1, 10),
			Platform: relpipe.HomogeneousPlatform(4, 1, 1e-8, 1, 1e-5, 3),
		},
		Method: "dp",
	})

	code, out, stderr := runCLI("jobs", "-addr", url, "submit", "-kind", "optimize", "-request", req,
		"-client", "cli-test", "-wait")
	if code != 0 {
		t.Fatalf("submit -wait exit %d: %s / %s", code, out, stderr)
	}
	if !strings.Contains(out, "succeeded") {
		t.Fatalf("submit -wait output missing terminal state: %s", out)
	}
	if !strings.Contains(out, `"solution"`) {
		t.Fatalf("submit -wait output missing result document: %s", out)
	}

	// The job id is the first token of the first line.
	id := strings.Fields(out)[0]
	if code, out, stderr = runCLI("jobs", "-addr", url, "status", id); code != 0 {
		t.Fatalf("status exit %d: %s", code, stderr)
	}
	var st relpipe.JobStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("status output not a JobStatus: %v: %s", err, out)
	}
	if st.ID != id || st.State != relpipe.JobSucceeded {
		t.Fatalf("status = %+v", st)
	}

	if code, out, stderr = runCLI("jobs", "-addr", url, "list", "-client", "cli-test"); code != 0 {
		t.Fatalf("list exit %d: %s", code, stderr)
	}
	if !strings.Contains(out, id) {
		t.Fatalf("list missing job %s: %s", id, out)
	}
}

func TestFleetRegisterFeedStatusRemove(t *testing.T) {
	url, svc := clitest.StartService(t)
	// Register a searched mapping with period slack 4x, so that a remap
	// can re-replicate.
	in := relpipe.Instance{
		Chain:    relpipe.RandomChain(1, 8, 1, 100, 1, 10),
		Platform: relpipe.HomogeneousPlatform(6, 1, 1e-8, 1, 1e-5, 3),
	}
	res, _, err := search.Optimize(in.Chain, in.Platform, search.Options{Restarts: 2, Budget: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := clitest.WriteJSON(t, t.TempDir(), "deployment.json", relpipe.FleetRegisterRequest{
		ID:             "cli",
		Instance:       in,
		Mapping:        res.M,
		Bounds:         relpipe.Bounds{Period: 4 * res.Ev.WorstPeriod},
		MinReliability: 1e-12,
		Search:         &relpipe.SearchParams{Restarts: 2, Budget: 500, Seed: 1},
	})
	fleet := func(args ...string) (int, string, string) {
		return runCLI(append([]string{"fleet", "-addr", url}, args...)...)
	}

	code, out, stderr := fleet("register", "-file", path)
	if code != 0 {
		t.Fatalf("register exit %d: %s", code, stderr)
	}
	if !strings.Contains(out, "cli") || !strings.Contains(out, "healthy") {
		t.Fatalf("register output: %s", out)
	}
	if code, out, _ = fleet("list"); code != 0 || !strings.Contains(out, "cli") {
		t.Fatalf("list exit %d: %s", code, out)
	}

	// Feed a crash report for a mapped processor and wait for the
	// autonomous remap to be adopted.
	if code, out, stderr = fleet("feed", "cli", "-crash", strconv.Itoa(res.M.Procs[0][0])); code != 0 {
		t.Fatalf("feed exit %d: %s", code, stderr)
	}
	if !strings.Contains(out, "accepted 1") {
		t.Fatalf("feed output: %s", out)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		svc.Fleet().Tick()
		if st, ok := svc.Fleet().Status("cli"); ok && st.RemapsAdopted >= 1 {
			break
		}
		if time.Now().After(deadline) {
			st, _ := svc.Fleet().Status("cli")
			t.Fatalf("no adoption; status %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}

	if code, out, stderr = fleet("status", "cli"); code != 0 {
		t.Fatalf("status exit %d: %s", code, stderr)
	}
	var st relpipe.FleetDeployment
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("status output not a FleetDeployment: %v: %s", err, out)
	}
	if st.ID != "cli" || st.RemapsAdopted != 1 {
		t.Fatalf("status = %+v", st)
	}

	if code, _, stderr = fleet("rm", "cli"); code != 0 {
		t.Fatalf("rm exit %d: %s", code, stderr)
	}
	if code, _, _ = fleet("status", "cli"); code != 1 {
		t.Fatalf("status after rm exit %d, want 1", code)
	}
}
