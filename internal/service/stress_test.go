package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"

	"relpipe"
)

// TestStressIdenticalRequestsShareOneSolve is the service's concurrency
// contract: 64 concurrent identical /v1/optimize requests produce
// exactly one underlying solve — every other request either joins the
// in-flight solve (dedup) or is served from the result cache — with no
// data races (run under -race) and byte-identical responses.
func TestStressIdenticalRequestsShareOneSolve(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	const clients = 64

	body, err := json.Marshal(relpipe.OptimizeRequest{
		Instance: testInstance(21),
		Bounds:   relpipe.Bounds{Period: 300, Latency: 900},
		Method:   "exact",
	})
	if err != nil {
		t.Fatal(err)
	}

	responses := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
				return
			}
			responses[i], err = io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	if solves := seriesSum(t, s.Metrics(), "relpipe_solves_total"); solves != 1 {
		t.Fatalf("solves = %d, want exactly 1 for %d identical requests", solves, clients)
	}
	joins, hits := seriesSum(t, s.Metrics(), "relpipe_dedup_joins_total"), seriesSum(t, s.Metrics(), "relpipe_cache_hits_total")
	if joins+hits != clients-1 {
		t.Fatalf("dedup joins (%d) + cache hits (%d) = %d, want %d",
			joins, hits, joins+hits, clients-1)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(responses[i], responses[0]) {
			t.Fatalf("client %d got a different response body", i)
		}
	}

	// A later repeat of the same request must be a pure cache hit.
	resp, err := http.Post(ts.URL+"/v1/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status = %d", resp.StatusCode)
	}
	if seriesSum(t, s.Metrics(), "relpipe_solves_total") != 1 {
		t.Fatal("repeat request triggered a new solve")
	}
	if seriesSum(t, s.Metrics(), "relpipe_cache_hits_total") != hits+1 {
		t.Fatal("repeat request did not hit the cache")
	}
}

// TestStressMixedWorkload hammers the service with 64 concurrent
// requests spread over distinct instances and endpoints; every request
// must succeed and the solve count must not exceed the number of
// distinct jobs.
func TestStressMixedWorkload(t *testing.T) {
	s, ts := newTestServer(t, Options{QueueSize: 256})
	const clients = 64
	const distinct = 8

	bodies := make([][]byte, distinct)
	urls := make([]string, distinct)
	for i := range bodies {
		var v any
		in := testInstance(uint64(30 + i/2)) // instances shared across endpoint pairs
		if i%2 == 0 {
			urls[i] = ts.URL + "/v1/optimize"
			v = relpipe.OptimizeRequest{Instance: in, Method: "dp"}
		} else {
			urls[i] = ts.URL + "/v1/frontier"
			v = relpipe.FrontierRequest{Instance: in}
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(urls[i%distinct], "application/json", bytes.NewReader(bodies[i%distinct]))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()

	if solves := seriesSum(t, s.Metrics(), "relpipe_solves_total"); solves > distinct {
		t.Fatalf("solves = %d, want ≤ %d distinct jobs", solves, distinct)
	}
}
