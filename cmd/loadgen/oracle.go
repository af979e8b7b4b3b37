package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"relpipe"
)

// decoded is one request decoded the way the service decodes it, ready
// to be solved in-process through the relpipe facade.
type decoded struct {
	instance relpipe.Instance
	// heuristic reports whether the solve runs the search engine, the
	// only solve path that builds heuristic tables.
	heuristic bool
	// call runs the facade function the service's endpoint runs, with
	// the same method, seed and knobs, and returns the response DTO.
	// ctx carries the stage observer; it never changes the answer.
	call func(ctx context.Context) (any, error)
}

// decodeStrict mirrors the service's decoder: unknown fields and
// trailing data are errors.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON document")
	}
	return nil
}

// searchOptions folds a request's search knobs into solver options.
// Parallelism is 1: the service's answers are identical at every degree.
func searchOptions(ctx context.Context, sp *relpipe.SearchParams) relpipe.Options {
	o := relpipe.Options{Parallelism: 1, Context: ctx}
	if sp != nil {
		o.Restarts, o.Budget, o.Seed = sp.Restarts, sp.Budget, sp.Seed
	}
	return o
}

func method(name string) (relpipe.Method, error) {
	if name == "" {
		name = "auto"
	}
	return relpipe.ParseMethod(name)
}

// decode parses a request of the given endpoint kind. It covers the
// request shapes the workloads send.
func decode(kind string, body []byte) (decoded, error) {
	switch kind {
	case "optimize":
		var q relpipe.OptimizeRequest
		if err := decodeStrict(body, &q); err != nil {
			return decoded{}, err
		}
		m, err := method(q.Method)
		if err != nil {
			return decoded{}, err
		}
		return decoded{q.Instance, m == relpipe.Heuristic, func(ctx context.Context) (any, error) {
			sol, err := relpipe.OptimizeWith(q.Instance, q.Bounds, m, searchOptions(ctx, q.Search))
			return relpipe.OptimizeResponse{Solution: sol}, err
		}}, nil
	case "minperiod":
		var q relpipe.MinPeriodRequest
		if err := decodeStrict(body, &q); err != nil {
			return decoded{}, err
		}
		m, err := method(q.Method)
		if err != nil {
			return decoded{}, err
		}
		return decoded{q.Instance, m == relpipe.Heuristic, func(ctx context.Context) (any, error) {
			sol, err := relpipe.MinPeriodMethod(q.Instance, q.MinReliability, m, searchOptions(ctx, q.Search))
			return relpipe.OptimizeResponse{Solution: sol}, err
		}}, nil
	case "mincost":
		var q relpipe.MinCostRequest
		if err := decodeStrict(body, &q); err != nil {
			return decoded{}, err
		}
		m, err := method(q.Method)
		if err != nil {
			return decoded{}, err
		}
		return decoded{q.Instance, m == relpipe.Heuristic, func(ctx context.Context) (any, error) {
			sol, err := relpipe.MinimizeCostWith(q.Instance, q.Costs, q.MinReliability, q.Bounds, m, searchOptions(ctx, q.Search))
			return relpipe.MinCostResponse{Solution: sol}, err
		}}, nil
	case "evaluate":
		var q relpipe.EvaluateRequest
		if err := decodeStrict(body, &q); err != nil {
			return decoded{}, err
		}
		return decoded{q.Instance, false, func(context.Context) (any, error) {
			ev, err := relpipe.Evaluate(q.Instance, q.Mapping)
			return relpipe.EvaluateResponse{Eval: ev}, err
		}}, nil
	case "frontier":
		var q relpipe.FrontierRequest
		if err := decodeStrict(body, &q); err != nil {
			return decoded{}, err
		}
		return decoded{q.Instance, false, func(ctx context.Context) (any, error) {
			pts, err := relpipe.FrontierWith(q.Instance, relpipe.Options{Parallelism: 1, Context: ctx})
			return relpipe.FrontierResponse{Points: pts}, err
		}}, nil
	case "simulate":
		var q relpipe.SimulateRequest
		if err := decodeStrict(body, &q); err != nil {
			return decoded{}, err
		}
		return decoded{q.Instance, false, func(ctx context.Context) (any, error) { return simulate(ctx, q) }}, nil
	case "adapt":
		var q relpipe.AdaptRequest
		if err := decodeStrict(body, &q); err != nil {
			return decoded{}, err
		}
		if q.Mapping == nil {
			return decoded{}, errors.New("adapt: the benchmark always supplies the mapping")
		}
		if q.Policy == "" {
			q.Policy = "remap"
		}
		policy, err := relpipe.ParseAdaptPolicy(q.Policy)
		if err != nil {
			return decoded{}, err
		}
		return decoded{q.Instance, false, func(ctx context.Context) (any, error) {
			o := searchOptions(ctx, q.Search)
			b, err := relpipe.AdaptBatch(q.Instance, *q.Mapping, relpipe.AdaptOptions{
				Policy: policy, Horizon: q.Horizon, Period: q.Bounds.Period, Latency: q.Bounds.Latency,
				LifeScale: q.LifeScale, Spares: q.Spares, SpareCost: q.SpareCost, Costs: q.Costs,
				RepairLatency: q.RepairLatency, Seed: q.Seed, Restarts: o.Restarts, Budget: o.Budget,
			}, max(q.Replications, 1), o)
			if err != nil {
				return nil, err
			}
			return relpipe.AdaptResponse{Policy: policy.String(), Summary: b.Summarize()}, nil
		}}, nil
	}
	return decoded{}, fmt.Errorf("unsupported request kind %q", kind)
}

// simulate runs a simulation request: one run, or a replication batch,
// reduced to the wire aggregate with undefined values reported as 0.
func simulate(ctx context.Context, q relpipe.SimulateRequest) (any, error) {
	routing := relpipe.SimOneHop
	switch q.Routing {
	case "", "one-hop":
	case "two-hop":
		routing = relpipe.SimTwoHop
	default:
		return nil, fmt.Errorf("simulate: unknown routing %q", q.Routing)
	}
	cfg := relpipe.SimConfig{
		Chain: q.Instance.Chain, Platform: q.Instance.Platform, Mapping: q.Mapping,
		Period: q.Period, DataSets: q.DataSets, Seed: max(q.Seed, 1),
		InjectFailures: q.InjectFailures, Routing: routing, WarmUp: q.WarmUp,
	}
	if q.Replications > 1 {
		b, err := relpipe.SimulateBatch(cfg, q.Replications, relpipe.Options{Parallelism: 1, Context: ctx})
		if err != nil {
			return nil, err
		}
		return simulateResponse(b.DataSets(), b.Successes(), b.SuccessRate(), b.MeanLatency(), b.MaxLatency(), b.MeanSteadyPeriod()), nil
	}
	res, err := relpipe.Simulate(cfg)
	if err != nil {
		return nil, err
	}
	return simulateResponse(res.DataSets, res.Successes, res.SuccessRate(), res.MeanLatency(), res.MaxLatency(), res.SteadyPeriod), nil
}

func simulateResponse(dataSets, successes int, rate, mean, maxLat, steady float64) relpipe.SimulateResponse {
	finite := func(f float64) float64 {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0
		}
		return f
	}
	return relpipe.SimulateResponse{
		DataSets: dataSets, Successes: successes, SuccessRate: finite(rate),
		MeanLatency: finite(mean), MaxLatency: finite(maxLat), SteadyPeriod: finite(steady),
	}
}

// solveBody is the correctness oracle: the response body the service
// must return for a request, computed in-process.
func solveBody(q request) ([]byte, error) {
	d, err := decode(q.kind, q.body)
	if err != nil {
		return nil, err
	}
	v, err := d.call(context.Background())
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}
