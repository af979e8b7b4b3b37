package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"relpipe"
)

// TestClusterE2E boots a real 3-node cluster — three serve processes
// built from this package, wired together with -peers/-self — and
// exercises the cluster contract end to end over loopback TCP:
// consistent-hash routing (same owner from every entry node, more than
// one owner overall), cluster-wide dedup (concurrent identical requests
// across all nodes collapse to one solve), cross-node job reads (one
// hop to the node that owns the job ID), and
// kill-one-node fallback (a dead owner degrades to a local solve, never
// an error).
//
// The test is opt-in (RELPIPE_CLUSTER_E2E=1) because it builds a binary
// and spawns processes; the cluster-e2e CI job runs it. Node logs go to
// RELPIPE_E2E_LOGDIR when set (CI uploads them as artifacts on
// failure), a test temp dir otherwise.
func TestClusterE2E(t *testing.T) {
	if os.Getenv("RELPIPE_CLUSTER_E2E") != "1" {
		t.Skip("set RELPIPE_CLUSTER_E2E=1 to run the multi-process cluster e2e suite")
	}

	bin := filepath.Join(t.TempDir(), "serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building serve: %v\n%s", err, out)
	}

	logDir := os.Getenv("RELPIPE_E2E_LOGDIR")
	if logDir == "" {
		logDir = t.TempDir()
	} else if err := os.MkdirAll(logDir, 0o755); err != nil {
		t.Fatal(err)
	}

	// Reserve three loopback ports. Closing the listeners before the
	// nodes bind them is a small race, but e2e runs are serialized and
	// the ports are fresh from the kernel.
	addrs := make([]string, 3)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	urls := make([]string, len(addrs))
	for i, a := range addrs {
		urls[i] = "http://" + a
	}
	peerList := strings.Join(urls, ",")

	nodes := make([]*exec.Cmd, len(addrs))
	for i, a := range addrs {
		logf, err := os.Create(filepath.Join(logDir, fmt.Sprintf("node-%d.log", i)))
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin,
			"-addr", a, "-peers", peerList, "-self", urls[i],
			"-workers", "2", "-grace", "2s")
		cmd.Stdout = logf
		cmd.Stderr = logf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		nodes[i] = cmd
		t.Cleanup(func() {
			if cmd.Process != nil {
				cmd.Process.Signal(syscall.SIGTERM)
				done := make(chan struct{})
				go func() { cmd.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					cmd.Process.Kill()
					<-done
				}
			}
			logf.Close()
		})
	}
	t.Logf("cluster nodes: %v (logs in %s)", urls, logDir)
	for _, u := range urls {
		waitHealthy(t, u)
	}

	e2eInstance := func(seed uint64) relpipe.Instance {
		return relpipe.Instance{
			Chain:    relpipe.RandomChain(seed, 8, 1, 100, 1, 10),
			Platform: relpipe.HomogeneousPlatform(6, 1, 1e-8, 1, 1e-5, 3),
		}
	}

	post := func(url string, body []byte) (int, []byte, http.Header) {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b, resp.Header
	}

	// ---- consistent-hash routing: every entry node reports the same
	// owner for one instance, and ownership spreads across nodes.
	t.Log("phase: hash routing")
	owners := map[string]bool{}
	for seed := uint64(1); seed <= 16; seed++ {
		body, err := json.Marshal(relpipe.OptimizeRequest{Instance: e2eInstance(seed), Method: "dp"})
		if err != nil {
			t.Fatal(err)
		}
		owner := ""
		for _, u := range urls {
			status, b, hdr := post(u+"/v1/optimize", body)
			if status != http.StatusOK {
				t.Fatalf("seed %d via %s: status %d: %s", seed, u, status, b)
			}
			node := hdr.Get(relpipe.NodeHeader)
			if node == "" {
				t.Fatalf("seed %d via %s: missing %s header", seed, u, relpipe.NodeHeader)
			}
			if owner == "" {
				owner = node
			} else if node != owner {
				t.Fatalf("seed %d: entry nodes disagree on owner: %q vs %q", seed, node, owner)
			}
		}
		owners[owner] = true
	}
	if len(owners) < 2 {
		t.Errorf("16 instances all routed to a single node: %v", owners)
	}

	// ---- cluster-wide dedup: N concurrent identical requests entering
	// through every node must cost exactly one solve cluster-wide.
	t.Log("phase: cluster-wide dedup")
	heavy, err := json.Marshal(relpipe.OptimizeRequest{
		Instance: relpipe.Instance{
			Chain:    relpipe.RandomChain(77, 60, 1, 100, 1, 10),
			Platform: relpipe.HomogeneousPlatform(10, 1, 1e-8, 1, 1e-5, 3),
		},
		Method: "heuristic",
		Search: &relpipe.SearchParams{Restarts: 6, Budget: 30000, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := int64(0)
	for _, u := range urls {
		before += readMetric(t, u, "relpipe_solves_total")
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, 9)
	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(urls[slot%3]+"/v1/optimize", "application/json", bytes.NewReader(heavy))
			if err != nil {
				errs[slot] = err
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[slot] = fmt.Errorf("status %d: %s", resp.StatusCode, b)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			t.Fatalf("dedup request %d: %v", slot, err)
		}
	}
	after := int64(0)
	for _, u := range urls {
		after += readMetric(t, u, "relpipe_solves_total")
	}
	if got := after - before; got != 1 {
		t.Errorf("cluster-wide solves for 9 concurrent identical requests = %d, want 1", got)
	}

	// ---- cross-node jobs: submit on node 0, poll node 1.
	t.Log("phase: cross-node job")
	jobReq, err := json.Marshal(relpipe.OptimizeRequest{Instance: e2eInstance(42), Method: "dp"})
	if err != nil {
		t.Fatal(err)
	}
	c0 := &relpipe.JobsClient{BaseURL: urls[0]}
	st, err := c0.Submit(t.Context(), "optimize", json.RawMessage(jobReq), "e2e")
	if err != nil {
		t.Fatal(err)
	}
	// Watch streams the job's SSE events — proxied across nodes, since
	// the job lives on node 0 and the watch attaches to node 1.
	c1 := &relpipe.JobsClient{BaseURL: urls[1]}
	watchCtx, cancelWatch := context.WithTimeout(t.Context(), 60*time.Second)
	defer cancelWatch()
	final, err := c1.Watch(watchCtx, st.ID, func(relpipe.JobStatus) {})
	if err != nil {
		t.Fatalf("watching job from the non-home node: %v", err)
	}
	if final.State != relpipe.JobSucceeded || len(final.Result) == 0 {
		t.Fatalf("cross-node job status: %+v", final)
	}
	if final.Node != urls[0] {
		t.Errorf("job node = %q, want home node %q", final.Node, urls[0])
	}

	// ---- kill-one-node fallback: learn an instance's owner, crash that
	// node hard (SIGKILL), and request the same instance through a node
	// that has never seen it — it must answer 200 from a local fallback
	// solve and count it in relpipe_cluster_fallbacks_total.
	t.Log("phase: kill-one-node fallback")
	probe, err := json.Marshal(relpipe.OptimizeRequest{Instance: e2eInstance(99), Method: "dp"})
	if err != nil {
		t.Fatal(err)
	}
	status, _, hdr := post(urls[0]+"/v1/optimize", probe)
	if status != http.StatusOK {
		t.Fatalf("probe status %d", status)
	}
	owner := hdr.Get(relpipe.NodeHeader)
	victim := -1
	entry := ""
	for i, u := range urls {
		if u == owner {
			victim = i
		} else if u != urls[0] {
			entry = u // never saw the probe: no cached copy, must forward
		}
	}
	if victim < 0 {
		t.Fatalf("owner %q is not a cluster member", owner)
	}
	if owner != urls[0] {
		// The entry must be the node that is neither the probe's entry
		// (which cached the forwarded result) nor the owner.
		entry = ""
		for _, u := range urls {
			if u != owner && u != urls[0] {
				entry = u
			}
		}
	}
	if entry == "" {
		t.Fatal("no usable entry node for the fallback phase")
	}
	nodes[victim].Process.Kill()
	nodes[victim].Wait()

	status, body, hdr := post(entry+"/v1/optimize", probe)
	if status != http.StatusOK {
		t.Fatalf("fallback request after killing %s: status %d: %s", owner, status, body)
	}
	if node := hdr.Get(relpipe.NodeHeader); node != entry {
		t.Errorf("fallback attributed to %q, want the entry node %q", node, entry)
	}
	if n := readMetric(t, entry, "relpipe_cluster_fallbacks_total"); n < 1 {
		t.Errorf("relpipe_cluster_fallbacks_total on %s = %d, want >= 1", entry, n)
	}
}

// readMetric sums every sample of one series family (across its
// labels) in the node's Prometheus text exposition.
func readMetric(t *testing.T, url, family string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, line := range strings.Split(string(b), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if name, _, _ := strings.Cut(line[:sp], "{"); name != family {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		total += int64(v)
	}
	return total
}
