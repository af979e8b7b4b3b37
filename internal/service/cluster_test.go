package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"relpipe"
	"relpipe/internal/cluster"
	"relpipe/internal/obs"
)

// startCluster builds an n-node in-process cluster: n Servers, each
// behind its own httptest listener, all joined with the same membership
// list. Returns the servers and their base URLs in matching order.
func startCluster(t *testing.T, n int, opts Options) ([]*Server, []string) {
	t.Helper()
	servers := make([]*Server, n)
	urls := make([]string, n)
	for i := range servers {
		s := NewServer(opts)
		ts := httptest.NewServer(s)
		t.Cleanup(func() { ts.Close(); s.Close() })
		servers[i] = s
		urls[i] = ts.URL
	}
	for i, s := range servers {
		if err := s.JoinCluster(cluster.Config{Self: urls[i], Peers: urls}); err != nil {
			t.Fatal(err)
		}
	}
	return servers, urls
}

// postRaw posts a JSON body and returns the raw response (status, body
// bytes, headers) for byte-level comparisons.
func postRaw(t *testing.T, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b, resp.Header
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// differentialBodies builds one request document per endpoint kind —
// the full /v1 surface the cluster must answer byte-identically to a
// single node.
func differentialBodies(t *testing.T) map[string][]byte {
	t.Helper()
	in := testInstance(31)
	sol, err := relpipe.Optimize(in, relpipe.Bounds{}, relpipe.DP)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, in.Platform.P())
	for i := range costs {
		costs[i] = float64(i + 1)
	}
	return map[string][]byte{
		"optimize": mustMarshal(t, relpipe.OptimizeRequest{Instance: in, Method: "dp"}),
		"evaluate": mustMarshal(t, relpipe.EvaluateRequest{Instance: in, Mapping: sol.Mapping}),
		"minperiod": mustMarshal(t, relpipe.MinPeriodRequest{
			Instance: testInstance(32), MinReliability: 0.9}),
		"frontier": mustMarshal(t, relpipe.FrontierRequest{Instance: testInstance(33)}),
		"mincost": mustMarshal(t, relpipe.MinCostRequest{
			Instance: in, Costs: costs, MinReliability: 0.99}),
		"simulate": mustMarshal(t, relpipe.SimulateRequest{
			Instance: in, Mapping: sol.Mapping,
			Period: sol.Eval.WorstPeriod, DataSets: 200, Seed: 7, Routing: "two-hop"}),
		"adapt": mustMarshal(t, relpipe.AdaptRequest{
			Instance: testInstance(34), Policy: "spares", Horizon: 500,
			LifeScale: 1e5, Spares: 2, Seed: 1, Replications: 4}),
		"batch": mustMarshal(t, relpipe.BatchRequest{Jobs: []relpipe.BatchJob{
			{Kind: "optimize", Request: mustMarshal(t, relpipe.OptimizeRequest{Instance: testInstance(35), Method: "dp"})},
			{Kind: "frontier", Request: mustMarshal(t, relpipe.FrontierRequest{Instance: testInstance(36)})},
		}}),
	}
}

// TestClusterByteIdenticalToSingleNode is the differential pin of the
// whole cluster design: for every request kind, a 3-node cluster — hit
// through each entry node in turn — must answer with exactly the bytes
// a single-node server produces, at solver parallelism 1 and 8. It also
// asserts the routing contract: every entry node reports the same
// owning node for one request, and ownership spreads across more than
// one node over the full kind set would be hash-dependent, so only
// agreement is pinned here (spread is pinned in TestClusterRouting).
func TestClusterByteIdenticalToSingleNode(t *testing.T) {
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			opts := Options{Workers: 4, SolverParallelism: par}
			_, single := newTestServer(t, opts)
			_, urls := startCluster(t, 3, opts)

			bodies := differentialBodies(t)
			for kind, body := range bodies {
				status, want, hdr := postRaw(t, single.URL+"/v1/"+kind, body)
				if status != http.StatusOK {
					t.Fatalf("%s: single-node status %d: %s", kind, status, want)
				}
				if hdr.Get(relpipe.NodeHeader) != "" {
					t.Errorf("%s: single-node response carries %s", kind, relpipe.NodeHeader)
				}
				owner := ""
				for _, u := range urls {
					cstatus, got, chdr := postRaw(t, u+"/v1/"+kind, body)
					if cstatus != http.StatusOK {
						t.Fatalf("%s via %s: status %d: %s", kind, u, cstatus, got)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("%s via %s: cluster response differs from single node\n got: %s\nwant: %s",
							kind, u, got, want)
					}
					node := chdr.Get(relpipe.NodeHeader)
					if node == "" {
						t.Errorf("%s via %s: missing %s header", kind, u, relpipe.NodeHeader)
					}
					if kind == "batch" {
						// A batch executes on its entry node — the items
						// route individually — so the outer response is
						// attributed to the node that served it.
						if node != u {
							t.Errorf("batch via %s attributed to %q, want the entry node", u, node)
						}
						continue
					}
					if owner == "" {
						owner = node
					} else if node != owner {
						t.Errorf("%s: entry nodes disagree on owner: %q vs %q", kind, node, owner)
					}
				}
			}

			// The async-jobs kind: submit on node 0, poll the terminal
			// status through node 1 (one hop to node 0), and the result
			// document must be byte-identical to the synchronous answer.
			jobBody := mustMarshal(t, relpipe.OptimizeRequest{Instance: testInstance(37), Method: "dp"})
			status, want, _ := postRaw(t, single.URL+"/v1/optimize", jobBody)
			if status != http.StatusOK {
				t.Fatalf("jobs reference solve: status %d", status)
			}
			st := submitJobHTTP(t, urls[0], "optimize", json.RawMessage(jobBody), "diff")
			final := waitJob(t, urls[1], st.ID)
			if final.State != relpipe.JobSucceeded {
				t.Fatalf("job state = %s: %+v", final.State, final)
			}
			if !bytes.Equal(final.Result, want) {
				t.Errorf("job result differs from single-node sync response\n got: %s\nwant: %s",
					final.Result, want)
			}
			if final.Node != urls[0] {
				t.Errorf("job node = %q, want home node %q", final.Node, urls[0])
			}
		})
	}
}

// TestClusterRouting pins the hash-routing behavior across many keys:
// each instance has exactly one owner no matter which node the request
// enters through, and over enough distinct instances more than one node
// owns something (the ring actually spreads work). The listeners' ports
// are random and some port sets leave a node only a few percent of the
// ring, so 16 instances all landed on one node in about 1 run of 300;
// 128 instances bring that to a few runs in a million.
func TestClusterRouting(t *testing.T) {
	_, urls := startCluster(t, 3, Options{Workers: 2})
	owners := map[string]bool{}
	const instances = 128
	for seed := uint64(60); seed < 60+instances; seed++ {
		body := mustMarshal(t, relpipe.OptimizeRequest{Instance: testInstance(seed), Method: "dp"})
		owner := ""
		for _, u := range urls {
			status, b, hdr := postRaw(t, u+"/v1/optimize", body)
			if status != http.StatusOK {
				t.Fatalf("seed %d via %s: status %d: %s", seed, u, status, b)
			}
			node := hdr.Get(relpipe.NodeHeader)
			if owner == "" {
				owner = node
			} else if node != owner {
				t.Fatalf("seed %d: owner differs by entry node: %q vs %q", seed, node, owner)
			}
		}
		owners[owner] = true
	}
	if len(owners) < 2 {
		t.Errorf("%d distinct instances all owned by one node: %v", instances, owners)
	}
}

// TestClusterWideDedup: concurrent identical requests entering through
// every node of the cluster must collapse onto exactly one solve — the
// entry nodes' forward flights collapse locally, and the owner's own
// flight group collapses the forwarded leaders.
func TestClusterWideDedup(t *testing.T) {
	opts := Options{Workers: 2, SolverParallelism: 1}
	servers, urls := startCluster(t, 3, opts)

	// Heavy enough that the 9 requests below overlap in flight.
	body := mustMarshal(t, relpipe.OptimizeRequest{
		Instance: relpipe.Instance{
			Chain:    relpipe.RandomChain(19, 60, 1, 100, 1, 10),
			Platform: relpipe.HomogeneousPlatform(10, 1, 1e-8, 1, 1e-5, 3),
		},
		Method: "heuristic",
		Search: &relpipe.SearchParams{Restarts: 6, Budget: 30000, Seed: 5},
	})

	before := int64(0)
	for _, s := range servers {
		before += seriesSum(t, s.Metrics(), "relpipe_solves_total")
	}

	const perNode = 3
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([][]byte, len(urls)*perNode)
	errs := make([]error, len(urls)*perNode)
	for i, u := range urls {
		for j := 0; j < perNode; j++ {
			wg.Add(1)
			go func(slot int, u string) {
				defer wg.Done()
				<-start
				resp, err := http.Post(u+"/v1/optimize", "application/json", bytes.NewReader(body))
				if err != nil {
					errs[slot] = err
					return
				}
				defer resp.Body.Close()
				b, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != http.StatusOK {
					errs[slot] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
					return
				}
				results[slot] = b
			}(i*perNode+j, u)
		}
	}
	close(start)
	wg.Wait()

	for slot, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", slot, err)
		}
	}
	for slot := 1; slot < len(results); slot++ {
		if !bytes.Equal(results[slot], results[0]) {
			t.Errorf("request %d returned different bytes", slot)
		}
	}
	after := int64(0)
	for _, s := range servers {
		after += seriesSum(t, s.Metrics(), "relpipe_solves_total")
	}
	if got := after - before; got != 1 {
		t.Errorf("cluster-wide solves = %d, want exactly 1", got)
	}
}

// deadNodeURL returns a base URL whose port is closed — connections are
// refused immediately, modelling a crashed cluster member.
func deadNodeURL(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return "http://" + addr
}

// instanceOwnedBy searches deterministic test instances until one
// routes to the wanted node, so peer-failure tests can aim a request at
// a specific owner.
func instanceOwnedBy(t *testing.T, cl *cluster.Cluster, want string) relpipe.Instance {
	t.Helper()
	for seed := uint64(100); seed < 1100; seed++ {
		in := testInstance(seed)
		if cl.Owner(in.Canonical()) == want {
			return in
		}
	}
	t.Fatalf("no test instance routes to %s", want)
	return relpipe.Instance{}
}

// startClusterWithDeadMember builds two live nodes whose shared
// membership list also names a dead member (a closed port), and returns
// the live servers, their URLs and the dead member's URL.
func startClusterWithDeadMember(t *testing.T, opts Options) ([]*Server, []string, string) {
	t.Helper()
	dead := deadNodeURL(t)
	servers := make([]*Server, 2)
	urls := make([]string, 2)
	for i := range servers {
		s := NewServer(opts)
		ts := httptest.NewServer(s)
		t.Cleanup(func() { ts.Close(); s.Close() })
		servers[i] = s
		urls[i] = ts.URL
	}
	members := append([]string{dead}, urls...)
	for i, s := range servers {
		if err := s.JoinCluster(cluster.Config{Self: urls[i], Peers: members}); err != nil {
			t.Fatal(err)
		}
	}
	return servers, urls, dead
}

// TestClusterOwnerUnreachableFallsBack: a request owned by a dead node
// must degrade to a local solve on the entry node — same bytes as a
// single-node server, never an error — and count a routing fallback.
// The fallback solves without a second cache read: the entry node
// records one miss and one cache span for the request. Run at solver
// parallelism 1 and 8 like the differential test.
func TestClusterOwnerUnreachableFallsBack(t *testing.T) {
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			opts := Options{Workers: 2, SolverParallelism: par}
			liveServers, liveURLs, dead := startClusterWithDeadMember(t, opts)

			in := instanceOwnedBy(t, liveServers[0].Cluster(), dead)
			body := mustMarshal(t, relpipe.OptimizeRequest{Instance: in, Method: "dp"})

			_, single := newTestServer(t, opts)
			status, want, _ := postRaw(t, single.URL+"/v1/optimize", body)
			if status != http.StatusOK {
				t.Fatalf("single-node reference: status %d", status)
			}

			status, got, hdr := postRaw(t, liveURLs[0]+"/v1/optimize", body)
			if status != http.StatusOK {
				t.Fatalf("fallback request: status %d: %s", status, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("fallback bytes differ from single node\n got: %s\nwant: %s", got, want)
			}
			// The fallback executed locally, so the answer is attributed
			// to the entry node, not the dead owner.
			if node := hdr.Get(relpipe.NodeHeader); node != liveURLs[0] {
				t.Errorf("fallback node header = %q, want entry node %q", node, liveURLs[0])
			}
			if n := seriesSum(t, liveServers[0].Metrics(), `relpipe_cluster_fallbacks_total{peer="`+dead+`"}`); n < 1 {
				t.Errorf("fallbacks to %s = %d, want >= 1", dead, n)
			}
			if n := seriesSum(t, liveServers[0].Metrics(), "relpipe_cache_misses_total"); n != 1 {
				t.Errorf("entry-node cache misses = %d, want 1", n)
			}
			// The root span ends after the response is written, so wait
			// for the trace to land before counting its cache spans.
			tid := hdr.Get(relpipe.TraceHeader)
			var spans []obs.Span
			waitFor(t, func() bool {
				tr, ok := liveServers[0].recorder.Find(tid)
				spans = tr.Spans
				return ok
			})
			cacheSpans := 0
			for _, sp := range spans {
				if sp.Name == "cache" {
					cacheSpans++
				}
			}
			if cacheSpans != 1 {
				t.Errorf("entry-node trace has %d cache spans, want 1", cacheSpans)
			}
		})
	}
}

// TestClusterJobOnRemoteOwner pins the async contract across a hop: a
// job submitted to a node that does not own its instance is solved by
// the owner, and its result is byte-identical to the single-node
// synchronous body. With the owner dead, the entry node falls back to a
// local solve and counts exactly one fallback.
func TestClusterJobOnRemoteOwner(t *testing.T) {
	opts := Options{Workers: 2, SolverParallelism: 1}
	_, single := newTestServer(t, opts)
	run := func(t *testing.T, entryURL string, in relpipe.Instance) {
		t.Helper()
		body := mustMarshal(t, relpipe.OptimizeRequest{Instance: in, Method: "dp"})
		status, want, _ := postRaw(t, single.URL+"/v1/optimize", body)
		if status != http.StatusOK {
			t.Fatalf("single-node reference: status %d", status)
		}
		st := submitJobHTTP(t, entryURL, "optimize", json.RawMessage(body), "remote")
		final := waitJob(t, entryURL, st.ID)
		if final.State != relpipe.JobSucceeded {
			t.Fatalf("job state = %s: %s", final.State, final.Result)
		}
		if !bytes.Equal(final.Result, want) {
			t.Errorf("job result differs from single-node sync body\n got: %s\nwant: %s", final.Result, want)
		}
	}

	t.Run("live-owner", func(t *testing.T) {
		servers, urls := startCluster(t, 3, opts)
		run(t, urls[0], instanceOwnedBy(t, servers[0].Cluster(), urls[1]))
		if n := seriesSum(t, servers[1].Metrics(), "relpipe_solves_total"); n < 1 {
			t.Errorf("owner solves = %d, want >= 1", n)
		}
		if n := seriesSum(t, servers[0].Metrics(), "relpipe_solves_total"); n != 0 {
			t.Errorf("entry-node solves = %d, want 0 (the owner solves)", n)
		}
	})
	t.Run("dead-owner", func(t *testing.T) {
		servers, urls, dead := startClusterWithDeadMember(t, opts)
		run(t, urls[0], instanceOwnedBy(t, servers[0].Cluster(), dead))
		if n := seriesSum(t, servers[0].Metrics(), "relpipe_cluster_fallbacks_total"); n != 1 {
			t.Errorf("fallbacks = %d, want 1", n)
		}
		if n := seriesSum(t, servers[0].Metrics(), "relpipe_solves_total"); n < 1 {
			t.Errorf("entry-node solves = %d, want >= 1 (local fallback)", n)
		}
	})
}

// TestClusterSlowPeerHopTimeout: an owner that accepts the connection
// but never answers must not stall the entry node past the configured
// hop timeout — the request falls back to a local solve and still
// succeeds.
func TestClusterSlowPeerHopTimeout(t *testing.T) {
	// The stub peer hangs every request until the hop context is torn
	// down, modelling a wedged-but-listening member. The body must be
	// consumed for the server to notice the client disconnecting (the
	// background read that cancels r.Context() only runs once the body
	// is drained); the timer is a backstop so stub.Close never wedges.
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	defer stub.Close()

	opts := Options{Workers: 2, SolverParallelism: 1}
	s := NewServer(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	const hop = 250 * time.Millisecond
	if err := s.JoinCluster(cluster.Config{
		Self: ts.URL, Peers: []string{ts.URL, stub.URL}, HopTimeout: hop,
	}); err != nil {
		t.Fatal(err)
	}

	in := instanceOwnedBy(t, s.Cluster(), stub.URL)
	body := mustMarshal(t, relpipe.OptimizeRequest{Instance: in, Method: "dp"})

	t0 := time.Now()
	status, got, hdr := postRaw(t, ts.URL+"/v1/optimize", body)
	elapsed := time.Since(t0)
	if status != http.StatusOK {
		t.Fatalf("slow-peer request: status %d: %s", status, got)
	}
	if elapsed < hop {
		t.Errorf("request finished in %v, before the %v hop timeout — did it forward at all?", elapsed, hop)
	}
	if elapsed > 10*time.Second {
		t.Errorf("request took %v; the hop timeout did not bound the slow peer", elapsed)
	}
	if node := hdr.Get(relpipe.NodeHeader); node != ts.URL {
		t.Errorf("node header = %q, want local fallback %q", node, ts.URL)
	}
	if n := seriesSum(t, s.Metrics(), `relpipe_cluster_fallbacks_total{peer="`+stub.URL+`"}`); n < 1 {
		t.Errorf("fallbacks to %s = %d, want >= 1", stub.URL, n)
	}
}

// TestClusterJobFanIn covers the read-side job surface across nodes:
// a job submitted on its home node is visible — status, listing, SSE
// stream, cancellation — from every other node.
func TestClusterJobFanIn(t *testing.T) {
	_, urls := startCluster(t, 3, Options{Workers: 2})

	// Quick job on node 0, observed from nodes 1 and 2.
	quick := mustMarshal(t, relpipe.OptimizeRequest{Instance: testInstance(40), Method: "dp"})
	st := submitJobHTTP(t, urls[0], "optimize", json.RawMessage(quick), "fanin")
	if st.Node != urls[0] {
		t.Errorf("submitted job node = %q, want %q", st.Node, urls[0])
	}
	final := waitJob(t, urls[1], st.ID)
	if final.State != relpipe.JobSucceeded || len(final.Result) == 0 {
		t.Fatalf("fan-in status: %+v", final)
	}
	if final.Node != urls[0] {
		t.Errorf("fan-in status node = %q, want home node %q", final.Node, urls[0])
	}

	// The cluster-wide listing on node 2 includes node 0's job.
	resp, err := http.Get(urls[2] + "/v1/jobs?client=fanin")
	if err != nil {
		t.Fatal(err)
	}
	var lr relpipe.JobListResponse
	err = json.NewDecoder(resp.Body).Decode(&lr)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, js := range lr.Jobs {
		if js.ID == st.ID {
			found = true
			if js.Node != urls[0] {
				t.Errorf("listed job node = %q, want %q", js.Node, urls[0])
			}
		}
	}
	if !found {
		t.Fatalf("job %s missing from node 2's merged listing (%d jobs)", st.ID, len(lr.Jobs))
	}

	// The SSE stream proxied through node 1 ends with the terminal
	// "done" event and names the home node.
	sresp, err := http.Get(urls[1] + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("proxied events = %d", sresp.StatusCode)
	}
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("proxied events content type = %q", ct)
	}
	if node := sresp.Header.Get(relpipe.NodeHeader); node != urls[0] {
		t.Errorf("proxied events node = %q, want %q", node, urls[0])
	}
	stream, err := io.ReadAll(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(stream), "event: done") ||
		!strings.Contains(string(stream), string(relpipe.JobSucceeded)) {
		t.Errorf("proxied stream missing terminal event:\n%s", stream)
	}

	// A slow job on node 0 cancelled through node 2.
	slow := mustMarshal(t, relpipe.OptimizeRequest{
		Instance: relpipe.Instance{
			Chain:    relpipe.RandomChain(21, 80, 1, 100, 1, 10),
			Platform: relpipe.HomogeneousPlatform(12, 1, 1e-8, 1, 1e-5, 3),
		},
		Method: "heuristic",
		Search: &relpipe.SearchParams{Restarts: 16, Budget: 200000, Seed: 2},
	})
	cst := submitJobHTTP(t, urls[0], "optimize", json.RawMessage(slow), "fanin")
	req, err := http.NewRequest(http.MethodDelete, urls[2]+"/v1/jobs/"+cst.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("fan-in cancel = %d", dresp.StatusCode)
	}
	cancelled := waitJob(t, urls[1], cst.ID)
	if cancelled.State != relpipe.JobCancelled && cancelled.State != relpipe.JobSucceeded {
		t.Fatalf("cancelled job state = %s", cancelled.State)
	}
	if cancelled.State == relpipe.JobSucceeded {
		// The solve can legitimately win the race against the cancel;
		// note it so a persistently-succeeding run is investigated.
		t.Log("cancel raced with completion; job succeeded first")
	}
}

// TestForwardedRequestNeverReforwards pins the loop-prevention
// contract at the service level: a request carrying the forwarded
// marker executes locally even when the ring says another node owns
// it, under the synchronous contract and, with relpipe.AsyncHeader,
// under the async one.
func TestForwardedRequestNeverReforwards(t *testing.T) {
	for _, tc := range []struct {
		name  string
		async bool
	}{{"forwarded", false}, {"forwarded+async", true}} {
		t.Run(tc.name, func(t *testing.T) {
			servers, urls := startCluster(t, 3, Options{Workers: 2})

			// An instance owned by node 1, posted to node 0 with the
			// forwarded marker already set: node 0 must answer itself.
			in := instanceOwnedBy(t, servers[0].Cluster(), urls[1])
			body := mustMarshal(t, relpipe.OptimizeRequest{Instance: in, Method: "dp"})
			req, err := http.NewRequest(http.MethodPost, urls[0]+"/v1/optimize", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set(relpipe.ForwardedHeader, "http://test-origin.invalid")
			if tc.async {
				req.Header.Set(relpipe.AsyncHeader, "1")
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(bufio.NewReader(resp.Body))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("forwarded request = %d: %s", resp.StatusCode, b)
			}
			// Executed locally: node 0 solved it despite not owning the route.
			if seriesSum(t, servers[0].Metrics(), "relpipe_solves_total") < 1 {
				t.Error("forwarded request did not solve on the receiving node")
			}
			if seriesSum(t, servers[1].Metrics(), "relpipe_solves_total") != 0 {
				t.Error("forwarded request leaked to the ring owner")
			}
		})
	}
}
