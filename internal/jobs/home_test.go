package jobs_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"regexp"
	"testing"

	"relpipe/internal/cluster"
	"relpipe/internal/jobs"
)

// seededRing builds a ring over n node URLs with ports drawn from seed.
func seededRing(seed uint64, n int) (*cluster.Ring, []string) {
	r := rand.New(rand.NewPCG(seed, seed))
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("http://127.0.0.1:%d", 20000+r.IntN(40000))
	}
	return cluster.NewRing(nodes), nodes
}

// mint admits count jobs on e, alternating the run path (Submit) and
// the cache-hit path (SubmitCompleted), and returns their IDs.
func mint(t *testing.T, e *jobs.Engine, count int) []string {
	t.Helper()
	run := func(ctx context.Context, ctl jobs.Control) jobs.Outcome {
		return jobs.Outcome{Status: 200, Body: []byte(`{}`)}
	}
	ids := make([]string, count)
	for i := range ids {
		var j *jobs.Job
		var err error
		client := fmt.Sprint(i)
		if i%2 == 0 {
			j, err = e.Submit(context.Background(), "optimize", client, "", run)
		} else {
			j, err = e.SubmitCompleted("optimize", client, jobs.Outcome{Status: 200, Body: []byte(`{}`)})
		}
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID()
	}
	return ids
}

var idShape = regexp.MustCompile(`^[0-9a-f]{32}$`)

// TestEngineMintsOwnedIDs: an engine given an ownership predicate mints
// only IDs the ring assigns to its node, on 3- and 5-node rings, and
// stamps its node on every job. Without a predicate minting is the
// plain random draw, whose IDs land on more than one node of the ring.
func TestEngineMintsOwnedIDs(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		n    int
	}{{1, 3}, {2, 5}} {
		ring, nodes := seededRing(tc.seed, tc.n)
		for _, node := range nodes {
			e := jobs.NewEngine(jobs.Options{})
			e.SetNode(node, func(id string) bool { return ring.Owner(id) == node })
			for _, id := range mint(t, e, 200) {
				if owner := ring.Owner(id); owner != node {
					t.Errorf("%d nodes: %s minted %s, owned by %s", tc.n, node, id, owner)
				}
				if j, _ := e.Get(id); j.Status().Node != node {
					t.Errorf("%d nodes: job %s node = %q, want %q", tc.n, id, j.Status().Node, node)
				}
			}
			e.Close()
		}

		for _, setNode := range []bool{false, true} {
			e := jobs.NewEngine(jobs.Options{})
			if setNode {
				e.SetNode(nodes[0], nil)
			}
			owners := map[string]bool{}
			seen := map[string]bool{}
			for _, id := range mint(t, e, 200) {
				if !idShape.MatchString(id) || seen[id] {
					t.Errorf("unpredicated id %q malformed or repeated", id)
				}
				seen[id] = true
				owners[ring.Owner(id)] = true
			}
			e.Close()
			if len(owners) < 2 {
				t.Errorf("%d nodes, SetNode=%v: 200 unpredicated ids all landed on one node", tc.n, setNode)
			}
		}
	}
}
