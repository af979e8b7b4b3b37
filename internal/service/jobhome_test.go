package service

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"relpipe"
	"relpipe/internal/cluster"
)

// ownedID draws random job-shaped IDs until the ring assigns one to
// node.
func ownedID(t *testing.T, cl *cluster.Cluster, node string) string {
	t.Helper()
	for range 10000 {
		var b [16]byte
		rand.Read(b[:])
		if id := hex.EncodeToString(b[:]); cl.Owner(id) == node {
			return id
		}
	}
	t.Fatalf("no random id routes to %s", node)
	return ""
}

// TestClusterJobOneHop: a job read through a node that does not store
// it costs exactly one hop to the ID's ring owner — status, cancel and
// the SSE stream through node 1 reach node 0 and never node 2 — and
// every ID a node mints, for a solved or an instantly cached job, is
// one the ring assigns to that node.
func TestClusterJobOneHop(t *testing.T) {
	servers, urls := startCluster(t, 3, Options{Workers: 2})
	jobsOn := func(i int) int64 {
		return seriesSum(t, servers[i].Metrics(), `relpipe_requests_total{endpoint="jobs"}`)
	}

	body := mustMarshal(t, relpipe.OptimizeRequest{Instance: testInstance(41), Method: "dp"})
	st := submitJobHTTP(t, urls[0], "optimize", json.RawMessage(body), "hop")
	final := waitJob(t, urls[1], st.ID)
	if final.State != relpipe.JobSucceeded || final.Node != urls[0] {
		t.Fatalf("status through node 1: %+v", final)
	}
	req, err := http.NewRequest(http.MethodDelete, urls[1]+"/v1/jobs/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel through node 1 = %d", resp.StatusCode)
	}
	code, stream := getBody(t, urls[1]+"/v1/jobs/"+st.ID+"/events")
	if code != http.StatusOK || !strings.Contains(stream, "event: done") {
		t.Fatalf("events through node 1 = %d:\n%s", code, stream)
	}
	if n := jobsOn(2); n != 0 {
		t.Errorf("node 2 served %d job requests for a job owned by node 0, want 0", n)
	}

	// Every minted ID is owned by its node: a solved job, then the same
	// request again, which completes from the cache.
	for i, s := range servers {
		for _, cached := range []bool{false, true} {
			st := submitJobHTTP(t, urls[i], "optimize", json.RawMessage(body), "mint")
			if cached && !st.Cached {
				t.Errorf("node %d: resubmission not served from the cache", i)
			}
			if owner := s.Cluster().Owner(st.ID); owner != urls[i] {
				t.Errorf("node %d minted %s (cached=%v), owned by %s", i, st.ID, st.Cached, owner)
			}
			waitJob(t, urls[i], st.ID)
		}
	}
}

// TestClusterJobPollSkipsHangingMember: a ring member that accepts
// connections but never answers stalls no job read it does not own. A
// poll for an unknown ID owned by a live node answers 404 at once, and
// reading a live job cross-node sends the hanging member nothing.
func TestClusterJobPollSkipsHangingMember(t *testing.T) {
	var jobHits atomic.Int64
	release := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/jobs") {
			jobHits.Add(1)
		}
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(stub.Close)
	t.Cleanup(func() { close(release) }) // runs first: unblock, then close

	servers := make([]*Server, 2)
	urls := make([]string, 2)
	for i := range servers {
		s := NewServer(Options{Workers: 2})
		ts := httptest.NewServer(s)
		t.Cleanup(func() { ts.Close(); s.Close() })
		servers[i], urls[i] = s, ts.URL
	}
	members := append([]string{stub.URL}, urls...)
	for i, s := range servers {
		if err := s.JoinCluster(cluster.Config{Self: urls[i], Peers: members}); err != nil {
			t.Fatal(err)
		}
	}

	id := ownedID(t, servers[1].Cluster(), urls[0])
	t0 := time.Now()
	code, body := getBody(t, urls[1]+"/v1/jobs/"+id)
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Errorf("unknown-id poll took %v; faninHop is %v", elapsed, faninHop)
	}
	if code != http.StatusNotFound || !strings.Contains(body, "jobs: no such job") {
		t.Errorf("unknown-id poll = %d %s, want 404 no such job", code, body)
	}

	in := instanceOwnedBy(t, servers[0].Cluster(), urls[0])
	req := mustMarshal(t, relpipe.OptimizeRequest{Instance: in, Method: "dp"})
	st := submitJobHTTP(t, urls[0], "optimize", json.RawMessage(req), "hang")
	if final := waitJob(t, urls[1], st.ID); final.State != relpipe.JobSucceeded {
		t.Fatalf("cross-node job read: %+v", final)
	}
	if n := jobHits.Load(); n != 0 {
		t.Errorf("hanging member saw %d job requests, want 0", n)
	}
}
