package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"relpipe"
)

// request is one HTTP request of a workload: POST /v1/<kind> with body.
type request struct {
	kind string
	body []byte
}

// arrival is one open-loop arrival: a burst of identical requests (one,
// except on mixed-cluster) due at the same offset from the phase start.
type arrival struct {
	due  time.Duration
	reqs []request
}

// workload is one traffic mix. build draws the workload's catalog (its
// instances and prefilled documents) and returns the setup documents
// plus the per-arrival draw over the catalog.
type workload struct {
	name  string
	nodes int     // cmd/serve processes; load always enters node 0
	rate  float64 // open-loop arrivals per second
	build func(r *rand.Rand) (setup []request, draw drawFunc)
}

// drawFunc draws one arrival's requests. u, uniform on [0, 1), picks the
// request's class: its kind or instance, whichever sets most of its cost.
// r draws everything else.
type drawFunc func(u float64, r *rand.Rand) []request

// workloads lists the traffic mixes in the order a full run measures
// them. Each one loads a different layer and leaves the others idle, so
// an optimisation of one layer has a workload that exercises it and one
// on which the prediction is "no change". The rates put the 1000
// requests a p99 needs into a 26 s run's open loop.
var workloads = []workload{
	// Every key is new: search, heuristic tables and the solve batcher do
	// the work, the cache none.
	{name: "search-cold", nodes: 1, rate: 160, build: buildSearchCold},
	// Prefilled documents, all hits: HTTP, strict decode, the canonical
	// key, the LRU and the write, no solver.
	{name: "hot-cache", nodes: 1, rate: 800, build: buildHotCache},
	// Simulate and adapt over supplied mappings: the sim and adapt
	// engines work, search and the cache stay idle.
	{name: "monte-carlo", nodes: 1, rate: 160, build: buildMonteCarlo},
	// Cached reads beside cold exact, DP and frontier solves, one cluster
	// hop, and bursts that deduplicate.
	{name: "mixed-cluster", nodes: 2, rate: 110, build: buildMixedCluster},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stream is a seeded request source for one workload: the setup
// documents, the open-loop arrival schedule and, after it, the
// closed-loop continuation of the same draw sequence.
type stream struct {
	rate   float64
	setup  []request
	draw   drawFunc
	class  float64    // the last class draw
	reqs   *rand.Rand // request draws
	clock  *rand.Rand // Poisson inter-arrival draws
	due    time.Duration
	queued []request // closed loop: rest of the current burst
}

// catalogSeed draws every workload's catalog. The catalog is the same
// for every -seed, which draws only the requests over it (which
// instance or document, bounds, knobs and solver seeds) and their
// arrival times: runs on different seeds then measure the same work
// distribution instead of, say, a heavier instance landing on the most
// popular Zipf rank.
const catalogSeed = 0x5eed

// newStream returns the request source of a workload for a seed: the
// fixed catalog plus independent generators for the request sequence
// and the arrival times.
func newStream(w workload, seed uint64) *stream {
	setup, draw := w.build(rand.New(rand.NewPCG(catalogSeed, 1)))
	reqs := rand.New(rand.NewPCG(seed, 2))
	return &stream{
		rate:  w.rate,
		setup: setup,
		draw:  draw,
		class: reqs.Float64(),
		reqs:  reqs,
		clock: rand.New(rand.NewPCG(seed, 3)),
	}
}

// invPhi is the fractional part of the golden ratio.
const invPhi = 0.6180339887498949

// nextRequests draws the next arrival's requests. Request costs differ
// by two orders of magnitude between classes, so independent class draws
// would make the mix of a run, and with it every throughput and CPU
// figure, vary from seed to seed. The class draws instead follow the
// additive sequence u(k+1) = u(k) + invPhi mod 1 from a seeded start: any
// stretch of k draws holds each class in its share to within O(log k)
// requests, and the seed still changes every request.
func (s *stream) nextRequests() []request {
	s.class += invPhi
	if s.class >= 1 {
		s.class--
	}
	return s.draw(s.class, s.reqs)
}

// arrivals returns the Poisson arrivals due within d from the phase
// start, continuing the stream.
func (s *stream) arrivals(d time.Duration) []arrival {
	var out []arrival
	for {
		s.due += time.Duration(s.clock.ExpFloat64() / s.rate * float64(time.Second))
		if s.due >= d {
			return out
		}
		out = append(out, arrival{due: s.due, reqs: s.nextRequests()})
	}
}

// next returns the next request of the flattened stream (the closed
// loop, which ignores arrival times). Not safe for concurrent use.
func (s *stream) next() request {
	for len(s.queued) == 0 {
		s.queued = s.nextRequests()
	}
	q := s.queued[0]
	s.queued = s.queued[1:]
	return q
}

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	total := 0.0
	for k := range cdf {
		total += 1 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	for k := range cdf {
		cdf[k] /= total
	}
	return zipf{cdf}
}

// at returns the rank whose cumulative probability interval holds u.
func (z zipf) at(u float64) int {
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

func uniform(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// seedOf draws a search or simulation seed; 0 is avoided because the
// service aliases it to 1.
func seedOf(r *rand.Rand) uint64 { return r.Uint64()>>1 | 1 }

// paperChain draws a chain with the paper's §8 ranges: works in
// [1,100], output sizes in [1,10], the last output 0.
func paperChain(r *rand.Rand, n int) relpipe.Chain {
	c := make(relpipe.Chain, n)
	for i := range c {
		c[i].Work = uniform(r, 1, 100)
		if i < n-1 {
			c[i].Out = uniform(r, 1, 10)
		}
	}
	return c
}

// hetInstance draws a §8.2 heterogeneous instance: speeds in [1,100],
// failure rate 1e-8, b = 1, link failure rate 1e-5, K = 3.
func hetInstance(r *rand.Rand, n, p int) relpipe.Instance {
	c := paperChain(r, n)
	procs := make([]relpipe.Processor, p)
	for i := range procs {
		procs[i] = relpipe.Processor{Speed: uniform(r, 1, 100), FailRate: 1e-8}
	}
	return relpipe.Instance{Chain: c, Platform: relpipe.Platform{
		Procs: procs, Bandwidth: 1, LinkFailRate: 1e-5, MaxReplicas: 3,
	}}
}

// homInstance draws a chain on the paper's §8.1 homogeneous platform of
// p processors.
func homInstance(r *rand.Rand, n, p int) relpipe.Instance {
	return relpipe.Instance{Chain: paperChain(r, n), Platform: relpipe.HomogeneousPlatform(p, 1, 1e-8, 1, 1e-5, 3)}
}

// refInstance is an instance with a reference solution whose period,
// latency and reliability anchor the bounds of generated requests: any
// bound at least as loose as the reference is feasible.
type refInstance struct {
	in  relpipe.Instance
	sol relpipe.Solution
}

// reference solves the instance with a §7 heuristic (het) or the DP
// (hom) under a period a quarter of the one-interval mapping's, relaxing
// the target until a mapping exists; the result has several intervals,
// so simulations and searches over it do real pipeline work.
func reference(in relpipe.Instance) refInstance {
	method := relpipe.HeurP
	if in.Platform.Homogeneous() {
		method = relpipe.DP
	}
	one, err := relpipe.Optimize(in, relpipe.Bounds{}, method)
	if err != nil {
		panic(fmt.Sprintf("loadgen: unconstrained %v solve failed: %v", method, err))
	}
	for _, div := range []float64{4, 3, 2, 1.5} {
		sol, err := relpipe.Optimize(in, relpipe.Bounds{Period: one.Eval.WorstPeriod / div}, method)
		if err == nil {
			return refInstance{in, sol}
		}
	}
	return refInstance{in, one}
}

// looseBounds draws period and latency bounds 1.0-1.5x the reference's.
func (ri refInstance) looseBounds(r *rand.Rand) relpipe.Bounds {
	return relpipe.Bounds{
		Period:  ri.sol.Eval.WorstPeriod * uniform(r, 1, 1.5),
		Latency: ri.sol.Eval.WorstLatency * uniform(r, 1, 1.5),
	}
}

// looseFloor draws a reliability floor the reference meets: its
// log-reliability scaled by 1.0-1.5 (log-reliabilities are negative).
func (ri refInstance) looseFloor(r *rand.Rand) float64 {
	return math.Exp(ri.sol.Eval.LogRel * uniform(r, 1, 1.5))
}

// hetPool draws n §8.2 instances alternating between n=100/p=30 and
// n=40/p=12, the larger first (the most popular under Zipf).
func hetPool(r *rand.Rand, n int) []refInstance {
	pool := make([]refInstance, n)
	for i := range pool {
		if i%2 == 0 {
			pool[i] = reference(hetInstance(r, 100, 30))
		} else {
			pool[i] = reference(hetInstance(r, 40, 12))
		}
	}
	return pool
}

// randomMapping draws a valid interval mapping: a random partition into
// up to 8 intervals, each served by 1..K distinct processors.
func randomMapping(r *rand.Rand, in relpipe.Instance) relpipe.Mapping {
	n, p, k := len(in.Chain), in.Platform.P(), in.Platform.MaxReplicas
	m := 1 + r.IntN(min(n, p, 8))
	cuts := r.Perm(n - 1)[:m-1]
	slices.Sort(cuts)
	procs := r.Perm(p)
	var mp relpipe.Mapping
	first := 0
	for j := 0; j < m; j++ {
		last := n - 1
		if j < m-1 {
			last = cuts[j]
		}
		mp.Parts = append(mp.Parts, relpipe.Interval{First: first, Last: last})
		first = last + 1
		// Leave at least one processor for every later interval.
		reps := 1 + r.IntN(min(k, len(procs)-(m-1-j)))
		mp.Procs = append(mp.Procs, procs[:reps])
		procs = procs[reps:]
	}
	return mp
}

func encode(kind string, v any) request {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("loadgen: encode %s request: %v", kind, err))
	}
	return request{kind: kind, body: b}
}

func one(q request) []request { return []request{q} }

// warmUp is the number of requests sent before timing on the workloads
// that have no documents to prefill.
const warmUp = 64

// searchParams are the per-request search knobs of the heuristic
// requests: small, so a cold solve costs milliseconds, not seconds.
func searchParams(r *rand.Rand) *relpipe.SearchParams {
	return &relpipe.SearchParams{Restarts: 2, Budget: 500, Seed: seedOf(r)}
}

// procCosts draws per-processor prices for min-cost requests.
func procCosts(r *rand.Rand, p int) []float64 {
	c := make([]float64, p)
	for i := range c {
		c[i] = float64(1 + r.IntN(10))
	}
	return c
}

func buildSearchCold(r *rand.Rand) ([]request, drawFunc) {
	pool := hetPool(r, 8)
	costs := make([][]float64, len(pool))
	for i, ri := range pool {
		costs[i] = procCosts(r, ri.in.Platform.P())
	}
	z := newZipf(len(pool), 1.0)
	draw := func(u float64, r *rand.Rand) []request {
		i := z.at(u)
		ri := pool[i]
		switch u := r.Float64(); {
		case u < 0.60:
			return one(encode("optimize", relpipe.OptimizeRequest{
				Instance: ri.in, Bounds: ri.looseBounds(r), Method: "heuristic", Search: searchParams(r),
			}))
		case u < 0.85:
			return one(encode("minperiod", relpipe.MinPeriodRequest{
				Instance: ri.in, MinReliability: ri.looseFloor(r), Method: "heuristic", Search: searchParams(r),
			}))
		default:
			// Bounds only: with a reliability floor as well, the search
			// occasionally finds no mapping meeting both.
			return one(encode("mincost", relpipe.MinCostRequest{
				Instance: ri.in, Costs: costs[i],
				Bounds: ri.looseBounds(r), Method: "heuristic", Search: searchParams(r),
			}))
		}
	}
	return drawN(r, draw, warmUp), draw
}

// drawN draws n warm-up requests from a generator split off the
// catalog's, so the warm-up never repeats a key of the measured stream.
func drawN(r *rand.Rand, draw drawFunc, n int) []request {
	wr := rand.New(rand.NewPCG(r.Uint64(), r.Uint64()))
	var out []request
	for len(out) < n {
		out = append(out, draw(wr.Float64(), wr)...)
	}
	return out
}

// hotDocs is the hot-cache working set: below the service's 1024-entry
// LRU, so once prefilled every document stays cached.
const hotDocs = 512

func buildHotCache(r *rand.Rand) ([]request, drawFunc) {
	var pool []refInstance
	for i := 0; i < 4; i++ {
		pool = append(pool, reference(hetInstance(r, 100, 30)))
	}
	for i := 0; i < 8; i++ {
		pool = append(pool, reference(homInstance(r, 12, 10)))
	}
	seen := map[string]bool{}
	var docs []request
	add := func(q request) {
		if !seen[string(q.body)] {
			seen[string(q.body)] = true
			docs = append(docs, q)
		}
	}
	for _, ri := range pool[4:] {
		add(encode("frontier", relpipe.FrontierRequest{Instance: ri.in}))
	}
	for k := 0; len(docs) < hotDocs; k++ {
		ri := pool[r.IntN(len(pool))]
		switch k % 3 {
		case 0:
			req := relpipe.OptimizeRequest{Instance: ri.in, Method: "dp",
				Bounds: relpipe.Bounds{Period: ri.looseBounds(r).Period}}
			if !ri.in.Platform.Homogeneous() {
				req.Method, req.Bounds, req.Search = "heuristic", ri.looseBounds(r), searchParams(r)
			}
			add(encode("optimize", req))
		case 1:
			add(encode("evaluate", relpipe.EvaluateRequest{Instance: ri.in, Mapping: randomMapping(r, ri.in)}))
		default:
			add(encode("simulate", simulateRequest(r, ri, 200, 1)))
		}
	}
	r.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	z := newZipf(len(docs), 1.1)
	return docs, func(u float64, _ *rand.Rand) []request { return one(docs[z.at(u)]) }
}

// simulateRequest draws a failure-injecting simulation of the
// reference mapping with a fresh seed and routing mode.
func simulateRequest(r *rand.Rand, ri refInstance, dataSets, reps int) relpipe.SimulateRequest {
	routing := "one-hop"
	if r.IntN(2) == 1 {
		routing = "two-hop"
	}
	return relpipe.SimulateRequest{
		Instance: ri.in, Mapping: ri.sol.Mapping,
		Period:   ri.sol.Eval.WorstPeriod * uniform(r, 1, 1.2),
		DataSets: dataSets, Seed: seedOf(r), InjectFailures: true,
		Routing: routing, Replications: reps,
	}
}

func buildMonteCarlo(r *rand.Rand) ([]request, drawFunc) {
	pool := hetPool(r, 8)
	z := newZipf(len(pool), 1.0)
	draw := func(u float64, r *rand.Rand) []request {
		ri := pool[z.at(r.Float64())]
		switch {
		case u < 0.70:
			return one(encode("simulate", simulateRequest(r, ri, 150, 4)))
		case u < 0.85:
			return one(encode("simulate", simulateRequest(r, ri, 150, 16)))
		default:
			policy := "greedy"
			if r.IntN(2) == 1 {
				policy = "spares"
			}
			m := ri.sol.Mapping
			return one(encode("adapt", relpipe.AdaptRequest{
				Instance: ri.in, Mapping: &m, Policy: policy,
				Horizon: 2000, LifeScale: 2e4, Spares: 2, SpareCost: 1, RepairLatency: 0.5,
				Bounds: relpipe.Bounds{Period: ri.sol.Eval.WorstPeriod * 1.5},
				Seed:   seedOf(r), Replications: 4,
			}))
		}
	}
	return drawN(r, draw, warmUp), draw
}

// clusterDocs is the number of evaluate documents mixed-cluster
// prefills and then reads.
const clusterDocs = 256

// exactPool is how many of mixed-cluster's instances (the first ones,
// at most 13 tasks) exact solves draw from.
const exactPool = 32

func buildMixedCluster(r *rand.Rand) ([]request, drawFunc) {
	// Many instances, so the consistent-hash ring splits the routes (and
	// with them the misses) about evenly between the two nodes. Chain
	// lengths cycle through 10-13 on the first exactPool instances, which
	// every request may use, and through 14-15 on the rest, which only
	// the DP solves.
	pool := make([]refInstance, 48)
	for i := range pool {
		n := 10 + i%4
		if i >= exactPool {
			n = 14 + i%2
		}
		pool[i] = reference(homInstance(r, n, 10))
	}
	docs := make([]request, clusterDocs)
	for i := range docs {
		ri := pool[r.IntN(len(pool))]
		docs[i] = encode("evaluate", relpipe.EvaluateRequest{Instance: ri.in, Mapping: randomMapping(r, ri.in)})
	}
	// within maps u from [lo, hi) to an index below n, so that the
	// exact solves' and the frontiers' chain lengths, which set their
	// cost, are stratified as well.
	within := func(u, lo, hi float64, n int) int { return min(int((u-lo)/(hi-lo)*float64(n)), n-1) }
	draw := func(u float64, r *rand.Rand) []request {
		var q request
		switch {
		case u < 0.60:
			q = docs[r.IntN(len(docs))]
		case u < 0.725:
			// The DP is the period/reliability algorithm of §5.1; it
			// rejects a latency bound.
			ri := pool[r.IntN(len(pool))]
			b := ri.looseBounds(r)
			b.Latency = 0
			q = encode("optimize", relpipe.OptimizeRequest{Instance: ri.in, Bounds: b, Method: "dp"})
		case u < 0.85:
			// Exact solves stop at 13 tasks: a 15-task enumeration takes
			// ~100 ms and holds one of the two connections long enough to
			// swing the median of everything else.
			ri := pool[within(u, 0.725, 0.85, exactPool)]
			q = encode("optimize", relpipe.OptimizeRequest{Instance: ri.in, Bounds: ri.looseBounds(r), Method: "exact"})
		default:
			q = encode("frontier", relpipe.FrontierRequest{Instance: homInstance(r, 10+within(u, 0.85, 1, 3), 10)})
		}
		// Bursts of 1-4 identical requests, mean 1.5.
		n := 1
		switch u := r.Float64(); {
		case u >= 0.95:
			n = 4
		case u >= 0.90:
			n = 3
		case u >= 0.65:
			n = 2
		}
		out := make([]request, n)
		for i := range out {
			out[i] = q
		}
		return out
	}
	return docs, draw
}
