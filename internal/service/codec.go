package service

import (
	"fmt"

	"relpipe"
	"relpipe/internal/chain"
	"relpipe/internal/jsonscan"
	"relpipe/internal/platform"
)

// This file is the request codec of the /v1 solve kinds: one decoder
// per kind scans the whole document in one pass with jsonscan, and
// decode falls back to jsonscan.Strict, the encoding/json reference,
// whenever the scanner declines. Strict is therefore the only source
// of decode errors and their messages, and the codec's one contract is
// that on every document it accepts it decodes exactly what Strict
// decodes (FuzzRequestDecode holds it to that). Batch, job-submit and
// fleet documents stay on Strict; batch and job items reach the
// per-kind decoders through the kinds table (kinds.go).

// decode fills req from body with the kind's one-pass scan, or with
// Strict on the same bytes when the scan declines. An instance whose
// chain or platform is present but invalid declines too, so its
// validation error also comes from Strict.
func decode[T any](body []byte, req *T, scan func(*jsonscan.Scanner, *T)) error {
	if scanDocument(body, req, scan) {
		return nil
	}
	var zero T
	*req = zero
	return jsonscan.Strict(body, req)
}

// scanDocument runs scan over the whole of body and reports whether the
// scanner accepted it; on false, req holds a partial decode.
func scanDocument[T any](body []byte, req *T, scan func(*jsonscan.Scanner, *T)) bool {
	s := jsonscan.New(body)
	scan(&s, req)
	return s.Done()
}

// DecodeRequest decodes a /v1 solve document of the named kind (an
// entry of the kinds table, such as "optimize") into a new request DTO,
// as the endpoint does: one pass, with Strict as the fallback and the
// source of errors.
func DecodeRequest(name string, body []byte) (any, error) {
	k, ok := kinds[name]
	if !ok {
		return nil, fmt.Errorf("service: unknown request kind %q", name)
	}
	return k.decode(body)
}

// Member names of every object the request documents hold, in the
// order of their DTO's fields.
var (
	optimizeMembers  = []string{"instance", "bounds", "method", "search"}
	evaluateMembers  = []string{"instance", "mapping"}
	minPeriodMembers = []string{"instance", "minReliability", "method", "search"}
	frontierMembers  = []string{"instance"}
	minCostMembers   = []string{"instance", "costs", "minReliability", "bounds", "method", "search"}
	simulateMembers  = []string{"instance", "mapping", "period", "dataSets", "seed", "injectFailures",
		"routing", "warmUp", "replications"}
	adaptMembers = []string{"instance", "mapping", "policy", "horizon", "bounds", "lifeScale", "spares",
		"spareCost", "costs", "repairLatency", "seed", "replications", "search"}
	instanceMembers = []string{"chain", "platform"}
	boundsMembers   = []string{"period", "latency"}
	searchMembers   = []string{"restarts", "budget", "seed"}
	mappingMembers  = []string{"parts", "procs"}
	intervalMembers = []string{"first", "last"}
)

func scanOptimize(s *jsonscan.Scanner, r *relpipe.OptimizeRequest) {
	s.Members(optimizeMembers, func(name string) {
		switch name {
		case "instance":
			scanInstance(s, &r.Instance)
		case "bounds":
			scanBounds(s, &r.Bounds)
		case "method":
			r.Method = s.Text()
		case "search":
			r.Search = scanSearch(s)
		}
	})
}

func scanEvaluate(s *jsonscan.Scanner, r *relpipe.EvaluateRequest) {
	s.Members(evaluateMembers, func(name string) {
		switch name {
		case "instance":
			scanInstance(s, &r.Instance)
		case "mapping":
			scanMapping(s, &r.Mapping)
		}
	})
}

func scanMinPeriod(s *jsonscan.Scanner, r *relpipe.MinPeriodRequest) {
	s.Members(minPeriodMembers, func(name string) {
		switch name {
		case "instance":
			scanInstance(s, &r.Instance)
		case "minReliability":
			r.MinReliability = s.Float()
		case "method":
			r.Method = s.Text()
		case "search":
			r.Search = scanSearch(s)
		}
	})
}

func scanFrontier(s *jsonscan.Scanner, r *relpipe.FrontierRequest) {
	s.Members(frontierMembers, func(string) { scanInstance(s, &r.Instance) })
}

func scanMinCost(s *jsonscan.Scanner, r *relpipe.MinCostRequest) {
	s.Members(minCostMembers, func(name string) {
		switch name {
		case "instance":
			scanInstance(s, &r.Instance)
		case "costs":
			r.Costs = scanFloats(s)
		case "minReliability":
			r.MinReliability = s.Float()
		case "bounds":
			scanBounds(s, &r.Bounds)
		case "method":
			r.Method = s.Text()
		case "search":
			r.Search = scanSearch(s)
		}
	})
}

func scanSimulate(s *jsonscan.Scanner, r *relpipe.SimulateRequest) {
	s.Members(simulateMembers, func(name string) {
		switch name {
		case "instance":
			scanInstance(s, &r.Instance)
		case "mapping":
			scanMapping(s, &r.Mapping)
		case "period":
			r.Period = s.Float()
		case "dataSets":
			r.DataSets = s.Int()
		case "seed":
			r.Seed = s.Uint()
		case "injectFailures":
			r.InjectFailures = s.Bool()
		case "routing":
			r.Routing = s.Text()
		case "warmUp":
			r.WarmUp = s.Int()
		case "replications":
			r.Replications = s.Int()
		}
	})
}

func scanAdapt(s *jsonscan.Scanner, r *relpipe.AdaptRequest) {
	s.Members(adaptMembers, func(name string) {
		switch name {
		case "instance":
			scanInstance(s, &r.Instance)
		case "mapping":
			r.Mapping = new(relpipe.Mapping)
			scanMapping(s, r.Mapping)
		case "policy":
			r.Policy = s.Text()
		case "horizon":
			r.Horizon = s.Float()
		case "bounds":
			scanBounds(s, &r.Bounds)
		case "lifeScale":
			r.LifeScale = s.Float()
		case "spares":
			r.Spares = s.Int()
		case "spareCost":
			r.SpareCost = s.Float()
		case "costs":
			r.Costs = scanFloats(s)
		case "repairLatency":
			r.RepairLatency = s.Float()
		case "seed":
			r.Seed = s.Uint()
		case "replications":
			r.Replications = s.Int()
		case "search":
			r.Search = scanSearch(s)
		}
	})
}

// scanInstance decodes an instance through the chain and platform
// scanners their UnmarshalJSON methods use, and declines when a present
// half fails validation, as UnmarshalJSON would reject it.
func scanInstance(s *jsonscan.Scanner, in *relpipe.Instance) {
	s.Members(instanceMembers, func(name string) {
		switch name {
		case "chain":
			in.Chain = chain.Scan(s)
			if in.Chain.Validate() != nil {
				s.Decline()
			}
		case "platform":
			in.Platform = platform.Scan(s)
			if in.Platform.Validate() != nil {
				s.Decline()
			}
		}
	})
}

func scanBounds(s *jsonscan.Scanner, b *relpipe.Bounds) {
	s.Members(boundsMembers, func(name string) {
		switch name {
		case "period":
			b.Period = s.Float()
		case "latency":
			b.Latency = s.Float()
		}
	})
}

// scanSearch decodes a search object into a new SearchParams, as
// encoding/json allocates a present pointer member.
func scanSearch(s *jsonscan.Scanner) *relpipe.SearchParams {
	sp := new(relpipe.SearchParams)
	s.Members(searchMembers, func(name string) {
		switch name {
		case "restarts":
			sp.Restarts = s.Int()
		case "budget":
			sp.Budget = s.Int()
		case "seed":
			sp.Seed = s.Uint()
		}
	})
	return sp
}

// scanMapping decodes a mapping. Like encoding/json, a present empty
// array decodes to an empty slice, not nil. The processor sets share
// one backing array, each capped at its own length, so a mapping of up
// to 8 intervals and 32 replicas costs three allocations.
func scanMapping(s *jsonscan.Scanner, m *relpipe.Mapping) {
	s.Members(mappingMembers, func(name string) {
		switch name {
		case "parts":
			m.Parts = make(relpipe.Partition, 0, s.ArrayCap(len(`{"last":0}`)))
			s.Array(func() {
				var iv relpipe.Interval
				s.Members(intervalMembers, func(name string) {
					switch name {
					case "first":
						iv.First = s.Int()
					case "last":
						iv.Last = s.Int()
					}
				})
				m.Parts = append(m.Parts, iv)
			})
		case "procs":
			var flatBuf [32]int
			var lensBuf [8]int
			flat, lens := flatBuf[:0], lensBuf[:0]
			s.Array(func() {
				n := len(flat)
				s.Array(func() { flat = append(flat, s.Int()) })
				lens = append(lens, len(flat)-n)
			})
			all := make([]int, len(flat))
			copy(all, flat)
			m.Procs = make([][]int, len(lens))
			for i, n := range lens {
				m.Procs[i], all = all[:n:n], all[n:]
			}
		}
	})
}

// scanFloats decodes an array of numbers; a present empty array decodes
// to an empty slice, not nil.
func scanFloats(s *jsonscan.Scanner) []float64 {
	fs := []float64{}
	s.Array(func() { fs = append(fs, s.Float()) })
	return fs
}
