package service

// Tests of the heuristic-table tier (tables.go): one Tables value per
// route across concurrent and later requests, the mixed-instance and
// foreign-instance guards, the byte budget charged at settle, rider
// cancellation, and byte-identity of tiered responses to per-request
// table builds.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"testing"

	"relpipe"
	"relpipe/internal/heur"
	"relpipe/internal/obs"
)

// tierInstances returns two distinct instances whose canonical
// hashes — and hence batch routes — differ.
func tierInstances() (a, b relpipe.Instance) {
	a, b = testInstance(1), testInstance(2)
	if a.Canonical() == b.Canonical() {
		panic("test instances collide")
	}
	return a, b
}

// build builds both partition tables of tb, as a search's seed sweep
// does on its first candidates of each orientation.
func build(in relpipe.Instance, tb *relpipe.HeuristicTables) {
	g := heur.NewGen(in.Chain, in.Platform, heur.Options{}, tb)
	g.Partition(1, false)
	g.Partition(1, true)
}

// use is one heuristic solve's use of the tier on in's route: it takes
// the tables through the provider, builds them and settles the route,
// as the end of the solve does.
func use(tier *tableTier, in relpipe.Instance) *relpipe.HeuristicTables {
	tb := tier.provider(in.Canonical())(in)
	build(in, tb)
	tier.settle(in.Canonical())
	return tb
}

func TestTableTierOneBuildPerBatch(t *testing.T) {
	m := NewMetrics()
	tier := newTableTier(m, tableBudget)
	in, _ := tierInstances()
	get := tier.provider(in.Canonical())

	// The first concurrent use builds once; every caller gets the one
	// shared value.
	const members = 6
	tables := make([]*relpipe.HeuristicTables, members)
	var wg sync.WaitGroup
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i] = get(in)
		}(i)
	}
	wg.Wait()
	if got := seriesSum(t, m, "relpipe_solve_batch_tables_built_total"); got != 1 {
		t.Fatalf("tables built = %d, want 1", got)
	}
	if got := seriesSum(t, m, "relpipe_solve_batch_coalesced_total"); got != members-1 {
		t.Fatalf("coalesced = %d, want %d", got, members-1)
	}
	for i, tb := range tables {
		if tb == nil || tb != tables[0] {
			t.Fatalf("member %d got tables %p, want shared %p", i, tb, tables[0])
		}
	}

	// Nothing is charged until a solve settles.
	if tier.bytes != 0 {
		t.Fatalf("tier charged %d bytes before any settle", tier.bytes)
	}

	// A later request on the same route, through a fresh provider,
	// reuses the retained tables.
	if tb := use(tier, in); tb != tables[0] {
		t.Fatalf("later request got tables %p, want the retained %p", tb, tables[0])
	}
	if got := seriesSum(t, m, "relpipe_solve_batch_tables_built_total"); got != 1 {
		t.Fatalf("tables built after a later request = %d, want 1", got)
	}
	if got := seriesSum(t, m, "relpipe_solve_batch_coalesced_total"); got != members {
		t.Fatalf("coalesced after a later request = %d, want %d", got, members)
	}
	if tier.bytes == 0 || tier.bytes != tables[0].Bytes() || tier.lru.Len() != 1 {
		t.Fatalf("tier holds %d entries, %d bytes; want 1 entry of %d bytes", tier.lru.Len(), tier.bytes, tables[0].Bytes())
	}
}

func TestTableTierMixedInstancesDoNotCoalesce(t *testing.T) {
	m := NewMetrics()
	tier := newTableTier(m, tableBudget)
	inA, inB := tierInstances()
	ta, tb := tier.provider(inA.Canonical())(inA), tier.provider(inB.Canonical())(inB)
	if ta == nil || tb == nil || ta == tb {
		t.Fatalf("tables %p / %p: want two distinct builds", ta, tb)
	}
	if got := seriesSum(t, m, "relpipe_solve_batch_coalesced_total"); got != 0 {
		t.Fatalf("coalesced = %d, want 0 (different instances)", got)
	}
	if got := seriesSum(t, m, "relpipe_solve_batch_tables_built_total"); got != 2 {
		t.Fatalf("tables built = %d, want 2", got)
	}
}

// TestTableTierRejectsForeignInstance pins the degraded-platform guard: a
// solve keyed under one instance may re-optimize another (the adapt
// policies re-map platforms with dead processors), and the provider
// must decline rather than hand it the wrong tables — or retain tables
// for an instance no request was keyed under.
func TestTableTierRejectsForeignInstance(t *testing.T) {
	m := NewMetrics()
	tier := newTableTier(m, tableBudget)
	inA, inB := tierInstances()
	get := tier.provider(inA.Canonical())
	if tb := get(inB); tb != nil {
		t.Fatalf("provider handed instance A's tables to instance B: %p", tb)
	}
	if got := seriesSum(t, m, "relpipe_solve_batch_tables_built_total"); got != 0 {
		t.Fatalf("tables built = %d, want 0 (declined provider must not build)", got)
	}
	if tier.lru.Len() != 0 {
		t.Fatalf("declined provider created %d entries", tier.lru.Len())
	}
	if tb := get(inA); tb == nil {
		t.Fatal("provider declined the matching instance")
	}
}

// TestTableTierRiderLeavingKeepsBatchAlive pins that eviction never
// disturbs a solve already holding tables: an evicted route's tables
// stay valid for their holder, and the route's next use builds afresh.
func TestTableTierRiderLeavingKeepsBatchAlive(t *testing.T) {
	inA, inB := tierInstances()
	m := NewMetrics()
	// The budget holds one instance's tables, not two.
	tier := newTableTier(m, relpipe.BuildHeuristicTables(inA).Bytes()+1)
	held := use(tier, inA)
	if held == nil {
		t.Fatal("no tables")
	}
	size := held.Bytes()
	use(tier, inB) // evicts A
	if _, ok := tier.entries[inA.Canonical()]; ok {
		t.Fatal("A's tables were not evicted")
	}
	if held.Bytes() != size {
		t.Fatal("the holder's tables changed after eviction")
	}
	if tb := use(tier, inA); tb == nil || tb == held {
		t.Fatalf("evicted route got tables %p, want a fresh build (held %p)", tb, held)
	}
	if got := seriesSum(t, m, "relpipe_solve_batch_tables_built_total"); got != 3 {
		t.Fatalf("tables built = %d, want 3", got)
	}
}

// TestTableTierEvictsUnderBudget fills the tier past its byte budget:
// the least recently used route goes first, a route used since stays,
// and the retained bytes never exceed the budget.
func TestTableTierEvictsUnderBudget(t *testing.T) {
	ins := []relpipe.Instance{testInstance(1), testInstance(2), testInstance(3)}
	size := relpipe.BuildHeuristicTables(ins[0]).Bytes()
	for _, in := range ins[1:] {
		if b := relpipe.BuildHeuristicTables(in).Bytes(); b != size {
			t.Fatalf("test instances differ in table size: %d vs %d", b, size)
		}
	}
	m := NewMetrics()
	tier := newTableTier(m, 2*size) // room for two instances
	get := func(in relpipe.Instance) *relpipe.HeuristicTables { return use(tier, in) }
	a := get(ins[0])
	get(ins[1])
	if got := get(ins[0]); got != a { // A is now the most recently used
		t.Fatalf("A rebuilt below the budget: %p vs %p", got, a)
	}
	get(ins[2]) // over budget: B, the least recently used, goes
	if _, ok := tier.entries[ins[1].Canonical()]; ok {
		t.Fatal("B was kept over the budget")
	}
	for _, in := range []relpipe.Instance{ins[0], ins[2]} {
		if _, ok := tier.entries[in.Canonical()]; !ok {
			t.Fatalf("a recently used route was evicted")
		}
	}
	if tier.bytes != 2*size || tier.bytes > tier.budget {
		t.Fatalf("tier holds %d bytes, want %d within the budget %d", tier.bytes, 2*size, tier.budget)
	}
	if got := seriesSum(t, m, "relpipe_solve_batch_tables_built_total"); got != 3 {
		t.Fatalf("tables built = %d, want 3", got)
	}
}

// TestTableTierOversizeNotRetained: an instance whose tables alone
// exceed the budget is served its tables but leaves nothing behind once
// its solve settles, so its next request builds again.
func TestTableTierOversizeNotRetained(t *testing.T) {
	in, _ := tierInstances()
	m := NewMetrics()
	tier := newTableTier(m, relpipe.BuildHeuristicTables(in).Bytes()-1)
	for i := 1; i <= 2; i++ {
		if tb := use(tier, in); tb == nil {
			t.Fatal("oversize instance was not served tables")
		}
		if tier.lru.Len() != 0 || len(tier.entries) != 0 || tier.bytes != 0 {
			t.Fatalf("oversize instance retained: %d entries, %d bytes", tier.lru.Len(), tier.bytes)
		}
		if got := seriesSum(t, m, "relpipe_solve_batch_tables_built_total"); got != int64(i) {
			t.Fatalf("tables built = %d, want %d", got, i)
		}
	}
}

// TestTableTierDisabledIsInert: a request without a route takes no part
// in the tier — it gets no provider, so its search builds its own
// tables.
func TestTableTierDisabledIsInert(t *testing.T) {
	tier := newTableTier(NewMetrics(), tableBudget)
	if p := tier.provider(""); p != nil {
		t.Fatal("empty route got a provider")
	}
	if len(tier.entries) != 0 {
		t.Fatalf("empty route left %d entries", len(tier.entries))
	}
}

// optimizeBody builds a heuristic optimize request body with a
// per-caller search seed, so requests share an instance (and a route)
// but have distinct cache keys and distinct solves.
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

// processUntiered answers body on s with the request's route cleared,
// so no table tier serves it and its search builds its own tables: the
// per-request reference the tier must match byte for byte. Like
// process, it installs the stage observer, so the reference's seed
// lookups are counted too.
func processUntiered(t *testing.T, s *Server, kind string, parse parser, body []byte) outcome {
	t.Helper()
	req, err := s.newRequest(kind, parse, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Route = ""
	return s.execute(obs.WithStageObserver(context.Background(), s.observer), req)
}

// plugWorker occupies the only worker of s with a hand-built request
// whose solve blocks until release is closed; it returns once the plug
// runs, and the plug's outcome arrives on the returned channel.
func plugWorker(s *Server, release <-chan struct{}) <-chan outcome {
	started := make(chan struct{})
	done := make(chan outcome, 1)
	go func() {
		done <- s.execute(context.Background(), Request{
			Kind: "optimize", Key: "plug", Route: "plug-route",
			solve: func(relpipe.Options) (any, error) {
				close(started)
				<-release
				return relpipe.OptimizeResponse{}, nil
			},
		})
	}()
	<-started
	return done
}

// TestSolveBatchEndToEnd drives the full path: with the single worker
// plugged by an unrelated solve, N same-instance heuristic requests
// with distinct cache keys queue up and their solves share exactly one
// table build, and a later request on the instance builds nothing.
// Every response is byte-identical to the same body answered without
// the tier, where each search builds its own tables.
func TestSolveBatchEndToEnd(t *testing.T) {
	s := NewServer(Options{Workers: 1, CacheSize: -1})
	defer s.Close()
	in, _ := tierInstances()
	const members = 4

	release := make(chan struct{})
	plugDone := plugWorker(s, release)
	bodies := make([][]byte, members+1)
	for i := range bodies {
		bodies[i] = optimizeBody(t, in, uint64(i+1))
	}
	var wg sync.WaitGroup
	outs := make([]outcome, members+1)
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = s.process(context.Background(), "optimize", kinds["optimize"].parse, bodies[i])
		}(i)
	}
	waitFor(t, func() bool { return seriesSum(t, s.metrics, "relpipe_queue_depth") == members })
	close(release)
	if out := <-plugDone; out.status != http.StatusOK {
		t.Fatalf("plug status = %d", out.status)
	}
	wg.Wait()
	if got := seriesSum(t, s.metrics, "relpipe_solve_batch_tables_built_total"); got != 1 {
		t.Fatalf("tables built = %d, want 1 (one build for %d queued solves)", got, members)
	}
	if got := seriesSum(t, s.metrics, "relpipe_solve_batch_coalesced_total"); got != members-1 {
		t.Fatalf("coalesced = %d, want %d", got, members-1)
	}

	// One at a time, later: the tables are still in the tier.
	outs[members] = s.process(context.Background(), "optimize", kinds["optimize"].parse, bodies[members])
	if got := seriesSum(t, s.metrics, "relpipe_solve_batch_tables_built_total"); got != 1 {
		t.Fatalf("tables built after a later request = %d, want 1", got)
	}

	ref := NewServer(Options{Workers: 1, CacheSize: -1})
	defer ref.Close()
	for i, out := range outs {
		if out.status != http.StatusOK {
			t.Fatalf("request %d status = %d", i, out.status)
		}
		want := processUntiered(t, ref, "optimize", kinds["optimize"].parse, bodies[i])
		if want.status != http.StatusOK {
			t.Fatalf("untiered request %d status = %d", i, want.status)
		}
		if !bytes.Equal(out.body, want.body) {
			t.Fatalf("request %d: tiered body %s != untiered %s", i, out.body, want.body)
		}
	}
	if got := seriesSum(t, ref.metrics, "relpipe_solve_batch_tables_built_total"); got != 0 {
		t.Fatalf("untiered tables built = %d, want 0 (each search builds its own)", got)
	}
}

// TestSolveBatchRiderCancellationEndToEnd: one of two queued
// same-instance requests is cancelled while queued (the async contract,
// where ctx reaches the pool wait); the other still solves, the
// instance's tables are built once, and they stay in the tier for the
// next request.
func TestSolveBatchRiderCancellationEndToEnd(t *testing.T) {
	s := NewServer(Options{Workers: 1, CacheSize: -1})
	defer s.Close()
	in, _ := tierInstances()

	release := make(chan struct{})
	plugDone := plugWorker(s, release)
	riderCtx, cancelRider := context.WithCancel(context.Background())
	riderDone := make(chan outcome, 1)
	go func() {
		req, err := s.newRequest("optimize", kinds["optimize"].parse, optimizeBody(t, in, 7))
		if err != nil {
			panic(err)
		}
		riderDone <- s.executeWait(riderCtx, req, nil, nil)
	}()
	memberDone := make(chan outcome, 1)
	go func() {
		memberDone <- s.process(context.Background(), "optimize", kinds["optimize"].parse, optimizeBody(t, in, 8))
	}()
	waitFor(t, func() bool { return seriesSum(t, s.metrics, "relpipe_queue_depth") == 2 })
	cancelRider()
	if out := <-riderDone; out.status == http.StatusOK {
		t.Fatalf("cancelled rider got %d, want an error status", out.status)
	}
	close(release)
	<-plugDone
	if out := <-memberDone; out.status != http.StatusOK {
		t.Fatalf("surviving member got %d, want 200", out.status)
	}
	if out := s.process(context.Background(), "optimize", kinds["optimize"].parse, optimizeBody(t, in, 9)); out.status != http.StatusOK {
		t.Fatalf("later request got %d, want 200", out.status)
	}
	if got := seriesSum(t, s.metrics, "relpipe_solve_batch_tables_built_total"); got != 1 {
		t.Fatalf("tables built = %d, want 1", got)
	}
}

// TestTableTierMatchesPerRequestBuild is the tier's differential test:
// heuristic optimize, minperiod and mincost requests over two instances
// and several search seeds and period bounds — bounds close enough to
// share the allocation's cells, bounds across cells, and minperiod's
// unbounded allocation — answered in turn by one server (whose tier
// builds each instance's tables once and serves every later request
// from it and its seed memo) and by the same requests without the
// tier, must give the same status and the same bytes. Every instance
// must be served some seeds from the memo.
func TestTableTierMatchesPerRequestBuild(t *testing.T) {
	s := NewServer(Options{Workers: 1, CacheSize: -1})
	defer s.Close()
	ref := NewServer(Options{Workers: 1, CacheSize: -1})
	defer ref.Close()
	inA, inB := tierInstances()
	type job struct {
		kind  string
		parse parser
		body  any
	}
	jobs := 0
	for _, in := range []relpipe.Instance{inA, inB} {
		costs := make([]float64, in.Platform.P())
		for u := range costs {
			costs[u] = float64(1 + u%3)
		}
		var group []job
		for seed := uint64(1); seed <= 3; seed++ {
			search := &relpipe.SearchParams{Restarts: 2, Budget: 300, Seed: seed}
			group = append(group,
				job{"optimize", kinds["optimize"].parse, relpipe.OptimizeRequest{
					Instance: in, Bounds: relpipe.Bounds{Period: 200, Latency: 700}, Method: "heuristic", Search: search}},
				job{"minperiod", kinds["minperiod"].parse, relpipe.MinPeriodRequest{
					Instance: in, MinReliability: 0.5, Method: "heuristic", Search: search}},
				job{"mincost", kinds["mincost"].parse, relpipe.MinCostRequest{
					Instance: in, Costs: costs, Bounds: relpipe.Bounds{Period: 200, Latency: 700}, Method: "heuristic", Search: search}},
			)
		}
		for _, period := range []float64{200.25, 200.5, 90, 130, 260, 1000} {
			search := &relpipe.SearchParams{Restarts: 2, Budget: 300, Seed: 4}
			group = append(group,
				job{"optimize", kinds["optimize"].parse, relpipe.OptimizeRequest{
					Instance: in, Bounds: relpipe.Bounds{Period: period, Latency: 700}, Method: "heuristic", Search: search}},
				job{"mincost", kinds["mincost"].parse, relpipe.MinCostRequest{
					Instance: in, Costs: costs, Bounds: relpipe.Bounds{Period: period}, Method: "heuristic", Search: search}},
			)
		}
		hitsBefore := memoHits(t, s.metrics)
		for i, j := range group {
			body, err := json.Marshal(j.body)
			if err != nil {
				t.Fatal(err)
			}
			got := s.process(context.Background(), j.kind, j.parse, body)
			want := processUntiered(t, ref, j.kind, j.parse, body)
			if got.status != want.status || !bytes.Equal(got.body, want.body) {
				t.Fatalf("job %d (%s): tiered %d %s, untiered %d %s", i, j.kind, got.status, got.body, want.status, want.body)
			}
			if i < 9 && got.status != http.StatusOK {
				t.Fatalf("job %d (%s): status %d, want 200", i, j.kind, got.status)
			}
		}
		if hits := memoHits(t, s.metrics) - hitsBefore; hits < 1 {
			t.Fatalf("instance %d: %d seed-memo hits, want at least 1", jobs/len(group), hits)
		}
		jobs += len(group)
	}
	if got := seriesSum(t, s.metrics, "relpipe_solve_batch_tables_built_total"); got != 2 {
		t.Fatalf("tables built = %d, want 2 (one per instance)", got)
	}
	if got := seriesSum(t, s.metrics, "relpipe_solve_batch_coalesced_total"); got != int64(jobs-2) {
		t.Fatalf("coalesced = %d, want %d", got, jobs-2)
	}
	if got := memoHits(t, ref.metrics); got != 0 {
		t.Fatalf("untiered server: %d seed-memo hits, want 0", got)
	}
}

// memoHits reads the seed-memo hits from /metrics: the search.seed
// stage counts every seed lookup and search.seed.build every miss.
func memoHits(t *testing.T, m *Metrics) int64 {
	t.Helper()
	return seriesSum(t, m, `relpipe_solver_stage_units_total{stage="search.seed"}`) -
		seriesSum(t, m, `relpipe_solver_stage_units_total{stage="search.seed.build"}`)
}

// TestTableTierChargesSeedMemo drives many distinct period bounds
// through one route under a budget with little room beyond the bare
// tables: the seed memo's growth is charged to the tier, the retained
// bytes — memo included — never exceed the budget after a solve, and
// once the memo no longer fits the route is evicted, so its next
// request starts from fresh tables with an empty memo.
func TestTableTierChargesSeedMemo(t *testing.T) {
	s := NewServer(Options{Workers: 1, CacheSize: -1})
	defer s.Close()
	in, _ := tierInstances()
	bare := relpipe.BuildHeuristicTables(in).Bytes()
	s.tables = newTableTier(s.metrics, bare+4096)
	retained := func() int64 {
		s.tables.mu.Lock()
		defer s.tables.mu.Unlock()
		var sum int64
		for _, el := range s.tables.entries {
			sum += el.Value.(*tierEntry).tables.Bytes()
		}
		if sum != s.tables.bytes {
			t.Fatalf("tier charges %d bytes, its entries hold %d", s.tables.bytes, sum)
		}
		return sum
	}
	var peak int64
	evicted := false
	for i := 0; i < 120; i++ {
		builds := seriesSum(t, s.metrics, "relpipe_solve_batch_tables_built_total")
		body, err := json.Marshal(relpipe.OptimizeRequest{
			Instance: in, Bounds: relpipe.Bounds{Period: 40 + 3*float64(i)},
			Method: "heuristic", Search: &relpipe.SearchParams{Restarts: 1, Budget: 50, Seed: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.process(context.Background(), "optimize", kinds["optimize"].parse, body)
		got := retained()
		if got > s.tables.budget {
			t.Fatalf("request %d: tier retains %d bytes over its budget %d", i, got, s.tables.budget)
		}
		peak = max(peak, got)
		if seriesSum(t, s.metrics, "relpipe_solve_batch_tables_built_total") > builds && builds > 0 {
			// This request rebuilt the route: the evicted memo went with
			// its tables, and only this request's cells are charged.
			evicted = true
			if got >= peak {
				t.Fatalf("request %d: a rebuilt route holds %d bytes, as much as the evicted one's %d", i, got, peak)
			}
		}
	}
	if peak <= bare {
		t.Fatalf("the seed memo was never charged: peak %d bytes, bare tables %d", peak, bare)
	}
	if !evicted {
		t.Fatal("the memo never outgrew the budget; widen the bound sweep")
	}
	get := s.tables.provider(in.Canonical())
	s.tables.mu.Lock()
	for _, el := range s.tables.entries {
		s.tables.remove(el)
	}
	s.tables.mu.Unlock()
	tb := get(in)
	build(in, tb)
	if tb.Bytes() != bare {
		t.Fatalf("tables after eviction hold %d bytes, want the bare %d", tb.Bytes(), bare)
	}
}
