package service

import (
	"fmt"
	"math"

	"relpipe"
	"relpipe/internal/adapt"
	"relpipe/internal/jsonscan"
	"relpipe/internal/search"
	"relpipe/internal/sim"
)

// kinds is the one table of /v1 solve kinds: the mux routes
// POST /v1/<name> to each entry, batch items and jobs name their kind
// by it, DecodeRequest and endpointLabel read it, and the name prefixes
// the kind's cache keys and labels its request metrics. A new kind is
// added here and nowhere else.
var kinds = map[string]kind{
	"optimize":  kindOf(scanOptimize, prepareOptimize),
	"evaluate":  kindOf(scanEvaluate, prepareEvaluate),
	"minperiod": kindOf(scanMinPeriod, prepareMinPeriod),
	"frontier":  kindOf(scanFrontier, prepareFrontier),
	"mincost":   kindOf(scanMinCost, prepareMinCost),
	"simulate":  kindOf(scanSimulate, prepareSimulate),
	"adapt":     kindOf(scanAdapt, prepareAdapt),
}

// kind is one entry of the kinds table.
type kind struct {
	// decode fills a new request DTO from a document (DecodeRequest).
	decode func(body []byte) (any, error)
	// parse decodes a document and prepares its solve (newRequest).
	parse parser
}

// kindOf builds a kinds entry from the kind's one-pass scan (codec.go)
// and its prepare step, which checks the decoded DTO, keys it and
// returns its solve.
func kindOf[T any](scan func(*jsonscan.Scanner, *T), prepare func(*T, execOpts) (string, solveFunc, error)) kind {
	decodeNew := func(body []byte) (*T, error) {
		req := new(T)
		return req, decode(body, req, scan)
	}
	return kind{
		decode: func(body []byte) (any, error) { return decodeNew(body) },
		parse: func(body []byte, ex execOpts) (string, solveFunc, error) {
			req, err := decodeNew(body)
			if err != nil {
				return "", nil, err
			}
			return prepare(req, ex)
		},
	}
}

// parser turns a request body into a canonical cache key and a solve
// closure producing the response DTO; ex carries the search caps.
type parser func(body []byte, ex execOpts) (key string, solve solveFunc, err error)

// solveFunc produces a response DTO under the relpipe.Options the
// executor fills (solveToBytes): parallelism, cancellation context,
// progress hook and table provider. None of them changes an answer, so
// one closure gives bit-identical bodies on the synchronous and the
// async path; the closure adds the request's own search knobs.
type solveFunc func(o relpipe.Options) (any, error)

// checkSearch validates a request's search knobs against the server's
// caps and returns them (zero when absent). Search results depend on
// the knobs (but never on parallelism), so the cache keys carry them
// (appendSearch).
//
// The caps bound a search by iteration count, never by wall clock: a
// time cap would make the result depend on machine load, and a
// truncated answer cached under the deterministic seed-keyed entry
// would poison the cache (two replicas would serve different mappings
// for the same request forever). They bound the worst case — at the
// defaults, restarts × budget is the same order of work as a
// worst-case exact solve, the occupancy the service has always
// accepted; operators can lower -search-restarts/-search-budget.
func (e execOpts) checkSearch(sp *relpipe.SearchParams) (relpipe.SearchParams, error) {
	if sp == nil {
		return relpipe.SearchParams{}, nil
	}
	if sp.Restarts < 0 || sp.Budget < 0 {
		return *sp, fmt.Errorf("search: negative restarts or budget")
	}
	if sp.Restarts > e.maxSearchRestarts {
		return *sp, fmt.Errorf("search: %d restarts exceeds limit %d", sp.Restarts, e.maxSearchRestarts)
	}
	if sp.Budget > e.maxSearchBudget {
		return *sp, fmt.Errorf("search: budget %d exceeds limit %d", sp.Budget, e.maxSearchBudget)
	}
	return *sp, nil
}

// capDefaults sets each knob sp leaves at zero to its cap where the
// engine's default for it (restarts, budget) exceeds that cap, so every
// search a request starts runs within the caps. Defaults within the
// caps stay zero, so at the default caps no key or answer moves.
func (e execOpts) capDefaults(sp relpipe.SearchParams, restarts, budget int) relpipe.SearchParams {
	if sp.Restarts == 0 && restarts > e.maxSearchRestarts {
		sp.Restarts = e.maxSearchRestarts
	}
	if sp.Budget == 0 && budget > e.maxSearchBudget {
		sp.Budget = e.maxSearchBudget
	}
	return sp
}

// withSearch sets the search knobs of o.
func withSearch(o relpipe.Options, sp relpipe.SearchParams) relpipe.Options {
	o.Restarts, o.Budget, o.Seed = sp.Restarts, sp.Budget, sp.Seed
	return o
}

// searchSensitive reports whether a method's answer can depend on the
// search knobs: the explicit heuristic, or auto (which may route
// there). Exact/DP/ILP answers never do, so their cache keys omit the
// knobs — identical solves with and without an (ignored) search block
// share one entry, the same reasoning that keeps parallelism out of
// every key.
func searchSensitive(m relpipe.Method) bool {
	return m == relpipe.Heuristic || m == relpipe.Auto
}

// parseSolveMethod is the shared method/search-knob handling of the
// optimize, minperiod and mincost kinds over n tasks: default the
// method name to auto, validate the search knobs against the caps and
// keep the defaulted ones within them.
func parseSolveMethod(methodStr string, sp *relpipe.SearchParams, n int, ex execOpts) (relpipe.Method, relpipe.SearchParams, error) {
	if methodStr == "" {
		methodStr = "auto"
	}
	method, err := relpipe.ParseMethod(methodStr)
	if err != nil {
		return method, relpipe.SearchParams{}, err
	}
	knobs, err := ex.checkSearch(sp)
	return method, ex.capDefaults(knobs, search.DefaultRestarts, search.DefaultBudget(n)), err
}

// replications checks the Monte-Carlo replication count of a simulate
// or adapt request against maxReplications and maps 0 to the default 1;
// area prefixes the error.
func replications(area string, n int) (int, error) {
	if n < 0 {
		return 0, fmt.Errorf("%s: negative replications %d", area, n)
	}
	if n > maxReplications {
		return 0, fmt.Errorf("%s: %d replications exceeds limit %d", area, n, maxReplications)
	}
	return max(n, 1), nil
}

func prepareOptimize(req *relpipe.OptimizeRequest, ex execOpts) (string, solveFunc, error) {
	method, knobs, err := parseSolveMethod(req.Method, req.Search, len(req.Instance.Chain), ex)
	if err != nil {
		return "", nil, err
	}
	return optimizeKey(req, method), func(o relpipe.Options) (any, error) {
		sol, err := relpipe.OptimizeWith(req.Instance, req.Bounds, method, withSearch(o, knobs))
		if err != nil {
			return nil, err
		}
		return relpipe.OptimizeResponse{Solution: sol}, nil
	}, nil
}

func prepareEvaluate(req *relpipe.EvaluateRequest, _ execOpts) (string, solveFunc, error) {
	return evaluateKey(req), func(relpipe.Options) (any, error) {
		ev, err := relpipe.Evaluate(req.Instance, req.Mapping)
		if err != nil {
			return nil, err
		}
		return relpipe.EvaluateResponse{Eval: ev}, nil
	}, nil
}

func prepareMinPeriod(req *relpipe.MinPeriodRequest, ex execOpts) (string, solveFunc, error) {
	method, knobs, err := parseSolveMethod(req.Method, req.Search, len(req.Instance.Chain), ex)
	if err != nil {
		return "", nil, err
	}
	return minPeriodKey(req, method), func(o relpipe.Options) (any, error) {
		sol, err := relpipe.MinPeriodMethod(req.Instance, req.MinReliability, method, withSearch(o, knobs))
		if err != nil {
			return nil, err
		}
		return relpipe.OptimizeResponse{Solution: sol}, nil
	}, nil
}

func prepareFrontier(req *relpipe.FrontierRequest, _ execOpts) (string, solveFunc, error) {
	return frontierKey(req), func(o relpipe.Options) (any, error) {
		pts, err := relpipe.FrontierWith(req.Instance, o)
		if err != nil {
			return nil, err
		}
		return relpipe.FrontierResponse{Points: pts}, nil
	}, nil
}

func prepareMinCost(req *relpipe.MinCostRequest, ex execOpts) (string, solveFunc, error) {
	method, knobs, err := parseSolveMethod(req.Method, req.Search, len(req.Instance.Chain), ex)
	if err != nil {
		return "", nil, err
	}
	return minCostKey(req, method), func(o relpipe.Options) (any, error) {
		sol, err := relpipe.MinimizeCostWith(req.Instance, req.Costs, req.MinReliability, req.Bounds, method, withSearch(o, knobs))
		if err != nil {
			return nil, err
		}
		return relpipe.MinCostResponse{Solution: sol}, nil
	}, nil
}

func prepareSimulate(req *relpipe.SimulateRequest, _ execOpts) (string, solveFunc, error) {
	var routing sim.RoutingMode
	switch req.Routing {
	case "", "one-hop":
		routing = sim.OneHop
	case "two-hop":
		routing = sim.TwoHop
	default:
		return "", nil, fmt.Errorf("simulate: unknown routing %q (want one-hop or two-hop)", req.Routing)
	}
	reps, err := replications("simulate", req.Replications)
	if err != nil {
		return "", nil, err
	}
	if req.DataSets > maxSimDataSets/reps {
		return "", nil, fmt.Errorf("simulate: %d replications × %d data sets exceeds limit %d",
			reps, req.DataSets, maxSimDataSets)
	}
	if req.Seed == 0 {
		// Seed 0 aliases the default seed 1 (the repo-wide convention,
		// matching cmd/simulate and sim.RunBatch); normalizing before
		// the key also makes the two spellings share one cache entry.
		req.Seed = 1
	}
	key := simulateKey(req, routing, reps)
	cfg := relpipe.SimConfig{
		Chain:          req.Instance.Chain,
		Platform:       req.Instance.Platform,
		Mapping:        req.Mapping,
		Period:         req.Period,
		DataSets:       req.DataSets,
		Seed:           req.Seed,
		InjectFailures: req.InjectFailures,
		Routing:        routing,
		WarmUp:         req.WarmUp,
	}
	return key, func(o relpipe.Options) (any, error) {
		if reps > 1 {
			batch, err := relpipe.SimulateBatch(cfg, reps, o)
			if err != nil {
				return nil, err
			}
			return simulateResponse(batch.DataSets(), batch.Successes(),
				batch.SuccessRate(), batch.MeanLatency(), batch.MaxLatency(), batch.MeanSteadyPeriod()), nil
		}
		res, err := relpipe.Simulate(cfg)
		if err != nil {
			return nil, err
		}
		return simulateResponse(res.DataSets, res.Successes,
			res.SuccessRate(), res.MeanLatency(), res.MaxLatency(), res.SteadyPeriod), nil
	}, nil
}

// prepareAdapt handles the online-adaptation kind. Replications are
// capped like /v1/simulate's (each replication may run many remap
// searches, so an unbounded value would monopolize a worker); the remap
// search knobs are capped like every search-sensitive endpoint's and
// enter the cache key only when the policy actually searches (remap),
// mirroring how exact methods omit them.
func prepareAdapt(req *relpipe.AdaptRequest, ex execOpts) (string, solveFunc, error) {
	policyStr := req.Policy
	if policyStr == "" {
		policyStr = "remap"
	}
	policy, err := relpipe.ParseAdaptPolicy(policyStr)
	if err != nil {
		return "", nil, err
	}
	reps, err := replications("adapt", req.Replications)
	if err != nil {
		return "", nil, err
	}
	if req.Seed == 0 {
		// Seed 0 aliases the default seed 1 (the repo-wide convention);
		// normalized before the key so both spellings share one entry.
		req.Seed = 1
	}
	knobs, err := ex.checkSearch(req.Search)
	if err != nil {
		return "", nil, err
	}
	// The initial optimize defaults its knobs like any search; the
	// remaps default theirs like adapt does. Both stay within the caps.
	initial := ex.capDefaults(knobs, search.DefaultRestarts, search.DefaultBudget(len(req.Instance.Chain)))
	remap := ex.capDefaults(knobs, adapt.DefaultRestarts, adapt.DefaultBudget)
	return adaptKey(req, policy, reps), func(o relpipe.Options) (any, error) {
		m := relpipe.Mapping{}
		if req.Mapping != nil {
			m = *req.Mapping
		} else {
			// The server-side initial optimize is cancellable but reports
			// no progress: mixing its restart counts with the batch's
			// replication counts would interleave two different units.
			noProg := withSearch(o, initial)
			noProg.Progress = nil
			sol, err := relpipe.OptimizeWith(req.Instance, req.Bounds, relpipe.Auto, noProg)
			if err != nil {
				return nil, err
			}
			m = sol.Mapping
		}
		batch, err := relpipe.AdaptBatch(req.Instance, m, relpipe.AdaptOptions{
			Policy:        policy,
			Horizon:       req.Horizon,
			Period:        req.Bounds.Period,
			Latency:       req.Bounds.Latency,
			LifeScale:     req.LifeScale,
			Spares:        req.Spares,
			SpareCost:     req.SpareCost,
			Costs:         req.Costs,
			RepairLatency: req.RepairLatency,
			Seed:          req.Seed,
			Restarts:      remap.Restarts,
			Budget:        remap.Budget,
		}, reps, o)
		if err != nil {
			return nil, err
		}
		return relpipe.AdaptResponse{Policy: policy.String(), Summary: batch.Summarize()}, nil
	}, nil
}

// simulateResponse builds the wire aggregate shared by the single-run
// and batched simulate paths. The simulator reports undefined aggregates
// as NaN (no successful data set, or too few post-warm-up completions
// for SteadyPeriod), which json.Marshal rejects; the wire format uses 0
// for "undefined" (Successes / DataSets disambiguate).
func simulateResponse(dataSets, successes int, successRate, meanLatency, maxLatency, steadyPeriod float64) relpipe.SimulateResponse {
	return relpipe.SimulateResponse{
		DataSets:     dataSets,
		Successes:    successes,
		SuccessRate:  finiteOrZero(successRate),
		MeanLatency:  finiteOrZero(meanLatency),
		MaxLatency:   finiteOrZero(maxLatency),
		SteadyPeriod: finiteOrZero(steadyPeriod),
	}
}

// finiteOrZero maps NaN/±Inf to 0 so responses stay marshalable.
func finiteOrZero(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return f
}
