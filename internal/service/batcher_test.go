package service

// Tests of the solve batcher (batcher.go): the one-build-per-batch
// contract, the mixed-instance and degraded-instance guards, rider
// cancellation, and byte-identity of batched responses to a server with
// batching disabled.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"relpipe"
)

// batcherInstances returns two distinct instances whose canonical
// hashes — and hence batch routes — differ.
func batcherInstances() (a, b relpipe.Instance) {
	a, b = testInstance(1), testInstance(2)
	if a.Canonical() == b.Canonical() {
		panic("test instances collide")
	}
	return a, b
}

func TestBatcherOneBuildPerBatch(t *testing.T) {
	m := NewMetrics()
	b := newTableBatcher(m)
	in, _ := batcherInstances()
	route := in.Canonical()

	const members = 6
	entries := make([]*batchEntry, members)
	for i := range entries {
		entries[i] = b.join(route)
	}
	if got := seriesSum(t, m, "relpipe_solve_batch_coalesced_total"); got != members-1 {
		t.Fatalf("coalesced = %d, want %d", got, members-1)
	}

	// Every member resolves tables concurrently; exactly one build, one
	// shared value.
	tables := make([]*relpipe.HeuristicTables, members)
	var wg sync.WaitGroup
	for i, e := range entries {
		wg.Add(1)
		go func(i int, e *batchEntry) {
			defer wg.Done()
			tables[i] = e.provider(in)
		}(i, e)
	}
	wg.Wait()
	if got := seriesSum(t, m, "relpipe_solve_batch_tables_built_total"); got != 1 {
		t.Fatalf("tables built = %d, want 1", got)
	}
	for i, tb := range tables {
		if tb == nil || tb != tables[0] {
			t.Fatalf("member %d got tables %p, want shared %p", i, tb, tables[0])
		}
	}
	if tables[0].MaxIntervals() != min(len(in.Chain), in.Platform.P()) {
		t.Fatalf("MaxIntervals = %d", tables[0].MaxIntervals())
	}

	for _, e := range entries {
		e.leave()
	}
	if size := m.batchSize.Snapshot(); size.Count != 1 || size.Sum != members {
		t.Fatalf("batch size snapshot = count %d sum %v, want one observation of %d", size.Count, size.Sum, members)
	}
	// The batch drained: a fresh request starts a new batch with its
	// own build.
	e := b.join(route)
	if e.provider(in) == tables[0] {
		t.Fatal("drained batch's tables were reused")
	}
	if got := seriesSum(t, m, "relpipe_solve_batch_tables_built_total"); got != 2 {
		t.Fatalf("tables built after new batch = %d, want 2", got)
	}
	e.leave()
}

func TestBatcherMixedInstancesDoNotCoalesce(t *testing.T) {
	m := NewMetrics()
	b := newTableBatcher(m)
	inA, inB := batcherInstances()
	ea, eb := b.join(inA.Canonical()), b.join(inB.Canonical())
	if got := seriesSum(t, m, "relpipe_solve_batch_coalesced_total"); got != 0 {
		t.Fatalf("coalesced = %d, want 0 (different instances)", got)
	}
	ta, tb := ea.provider(inA), eb.provider(inB)
	if ta == nil || tb == nil || ta == tb {
		t.Fatalf("tables %p / %p: want two distinct builds", ta, tb)
	}
	if got := seriesSum(t, m, "relpipe_solve_batch_tables_built_total"); got != 2 {
		t.Fatalf("tables built = %d, want 2", got)
	}
	ea.leave()
	eb.leave()
}

// TestBatcherRejectsForeignInstance pins the degraded-platform guard: a
// solve joined under one instance may re-optimize another (the adapt
// policies re-map platforms with dead processors), and the provider
// must decline rather than hand it the wrong tables.
func TestBatcherRejectsForeignInstance(t *testing.T) {
	m := NewMetrics()
	b := newTableBatcher(m)
	inA, inB := batcherInstances()
	e := b.join(inA.Canonical())
	defer e.leave()
	if tb := e.provider(inB); tb != nil {
		t.Fatalf("provider handed instance A's batch tables to instance B: %p", tb)
	}
	if got := seriesSum(t, m, "relpipe_solve_batch_tables_built_total"); got != 0 {
		t.Fatalf("tables built = %d, want 0 (declined provider must not build)", got)
	}
	if tb := e.provider(inA); tb == nil {
		t.Fatal("provider declined the matching instance")
	}
}

// TestBatcherRiderLeavingKeepsBatchAlive pins cancellation behavior: a
// rider that gives up (cancelled request) leaves without disturbing the
// members still solving — the shared tables stay valid and the batch
// drains only with the last member.
func TestBatcherRiderLeavingKeepsBatchAlive(t *testing.T) {
	m := NewMetrics()
	b := newTableBatcher(m)
	in, _ := batcherInstances()
	route := in.Canonical()

	worker, rider := b.join(route), b.join(route)
	tb := worker.provider(in)
	if tb == nil {
		t.Fatal("no tables")
	}
	rider.leave() // cancelled before its solve ran
	if got := worker.provider(in); got != tb {
		t.Fatalf("tables changed after a rider left: %p -> %p", tb, got)
	}
	if size := m.batchSize.Snapshot(); size.Count != 0 {
		t.Fatal("batch drained while a member was still in it")
	}
	worker.leave()
	if size := m.batchSize.Snapshot(); size.Count != 1 || size.Sum != 2 {
		t.Fatalf("batch size = count %d sum %v, want one observation of 2 (rider counted)", size.Count, size.Sum)
	}
	if got := seriesSum(t, m, "relpipe_solve_batch_tables_built_total"); got != 1 {
		t.Fatalf("tables built = %d, want 1", got)
	}
}

// TestBatcherDisabledIsInert: a request without a route takes no part
// in batching — its nil entry is a no-op on every code path the
// dispatch path touches.
func TestBatcherDisabledIsInert(t *testing.T) {
	b := newTableBatcher(NewMetrics())
	e := b.join("")
	if e != nil {
		t.Fatalf("empty route joined: %v", e)
	}
	e.leave() // must not panic
	in, _ := batcherInstances()
	if tb := e.provider(in); tb != nil {
		t.Fatalf("nil entry provided tables: %p", tb)
	}
	if len(b.entries) != 0 {
		t.Fatalf("empty route left %d entries", len(b.entries))
	}
}

// optimizeBody builds a heuristic optimize request body with a
// per-caller search seed, so concurrent requests share an instance (and
// a batch route) but have distinct cache keys and distinct solves.
func optimizeBody(t *testing.T, in relpipe.Instance, seed uint64) []byte {
	t.Helper()
	body, err := json.Marshal(relpipe.OptimizeRequest{
		Instance: in,
		Bounds:   relpipe.Bounds{Period: 200, Latency: 700},
		Method:   "heuristic",
		Search:   &relpipe.SearchParams{Restarts: 2, Budget: 300, Seed: seed},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestSolveBatchEndToEnd drives the full path: with the single worker
// plugged by an unrelated solve, N same-instance heuristic requests
// with distinct cache keys stack up in the queue, coalesce into one
// batch, and their solves share exactly one table build — while
// producing responses byte-identical to the same server answering the
// bodies one at a time, where every request is a one-member batch that
// builds its own tables.
func TestSolveBatchEndToEnd(t *testing.T) {
	s := NewServer(Options{Workers: 1, CacheSize: -1})
	defer s.Close()
	in, _ := batcherInstances()
	const members = 4

	// Plug the only worker with a hand-built request whose solve blocks
	// until every member has joined the batch.
	release := make(chan struct{})
	started := make(chan struct{})
	plugDone := make(chan outcome, 1)
	go func() {
		plugDone <- s.execute(context.Background(), Request{
			Kind: "optimize", Key: "plug", Route: "plug-route",
			solve: func(solveCtx) (any, error) {
				close(started)
				<-release
				return relpipe.OptimizeResponse{}, nil
			},
		})
	}()
	<-started

	// The members queue behind the plug; the batch join precedes the
	// queue wait, so all of them coalesce before any solve runs.
	bodies := make([][]byte, members)
	var wg sync.WaitGroup
	outs := make([]outcome, members)
	for i := range outs {
		bodies[i] = optimizeBody(t, in, uint64(i+1))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = s.process(context.Background(), "optimize", parseOptimize, bodies[i])
		}(i)
	}
	route := in.Canonical()
	waitFor(t, func() bool {
		s.batcher.mu.Lock()
		defer s.batcher.mu.Unlock()
		e := s.batcher.entries[route]
		return e != nil && e.refs == members
	})
	close(release)
	if out := <-plugDone; out.status != http.StatusOK {
		t.Fatalf("plug status = %d", out.status)
	}
	wg.Wait()

	if got := seriesSum(t, s.metrics, "relpipe_solve_batch_tables_built_total"); got != 1 {
		t.Fatalf("tables built = %d, want 1 (one build for %d member solves)", got, members)
	}
	if got := seriesSum(t, s.metrics, "relpipe_solve_batch_coalesced_total"); got != members-1 {
		t.Fatalf("coalesced = %d, want %d", got, members-1)
	}

	// Byte-identity: answered one at a time, each request forms a
	// one-member batch and builds its own tables, with the exact same
	// bodies.
	ref := NewServer(Options{Workers: 1, CacheSize: -1})
	defer ref.Close()
	for i, out := range outs {
		if out.status != http.StatusOK {
			t.Fatalf("member %d status = %d", i, out.status)
		}
		want := ref.process(context.Background(), "optimize", parseOptimize, bodies[i])
		if want.status != http.StatusOK {
			t.Fatalf("one-at-a-time member %d status = %d", i, want.status)
		}
		if !bytes.Equal(out.body, want.body) {
			t.Fatalf("member %d: batched body %s != one-at-a-time %s", i, out.body, want.body)
		}
	}
	if got := seriesSum(t, ref.metrics, "relpipe_solve_batch_tables_built_total"); got != members {
		t.Fatalf("one-at-a-time tables built = %d, want %d (one per request)", got, members)
	}
}

// TestSolveBatchRiderCancellationEndToEnd: one member of an in-flight
// batch is cancelled while queued (the async contract, where ctx
// reaches the pool wait); the remaining members still solve and share
// one build.
func TestSolveBatchRiderCancellationEndToEnd(t *testing.T) {
	s := NewServer(Options{Workers: 1, CacheSize: -1})
	defer s.Close()
	in, _ := batcherInstances()

	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		s.execute(context.Background(), Request{
			Kind: "optimize", Key: "plug", Route: "plug-route",
			solve: func(solveCtx) (any, error) {
				close(started)
				<-release
				return relpipe.OptimizeResponse{}, nil
			},
		})
	}()
	<-started

	route := in.Canonical()
	riderCtx, cancelRider := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var riderOut, memberOut outcome
	wg.Add(1)
	go func() {
		defer wg.Done()
		req, err := s.newRequest("optimize", parseOptimize, optimizeBody(t, in, 7))
		if err != nil {
			panic(err)
		}
		riderOut = s.executeWait(riderCtx, req, nil, nil)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		memberOut = s.process(context.Background(), "optimize", parseOptimize, optimizeBody(t, in, 8))
	}()
	waitFor(t, func() bool {
		s.batcher.mu.Lock()
		defer s.batcher.mu.Unlock()
		e := s.batcher.entries[route]
		return e != nil && e.refs == 2
	})
	cancelRider()
	// The rider must abandon the batch without draining it.
	waitFor(t, func() bool {
		s.batcher.mu.Lock()
		defer s.batcher.mu.Unlock()
		e := s.batcher.entries[route]
		return e != nil && e.refs == 1
	})
	close(release)
	wg.Wait()

	if riderOut.status == http.StatusOK {
		t.Fatalf("cancelled rider got %d, want an error status", riderOut.status)
	}
	if memberOut.status != http.StatusOK {
		t.Fatalf("surviving member got %d, want 200", memberOut.status)
	}
	if got := seriesSum(t, s.metrics, "relpipe_solve_batch_tables_built_total"); got != 1 {
		t.Fatalf("tables built = %d, want 1", got)
	}
}
