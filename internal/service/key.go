package service

import (
	"strconv"

	"relpipe"
	"relpipe/internal/sim"
)

// Cache keys. Each kind's key is built by one function of its decoded
// request: the instance digest first (the routing key, see routeKey),
// then every knob that can change the answer, floats by their exact
// bits. The parsers pass in what they normalized or validated first —
// the method, routing, replication count, and the seed that 0 aliases
// to 1. TestKeySuffixGolden pins the bytes, and TestKeyCoverage checks
// that every request field reaches its key.

func optimizeKey(r *relpipe.OptimizeRequest, m relpipe.Method) string {
	b := appendMethod(keyStart(r.Instance), m, r.Search)
	return string(appendFloats(append(b, '|'), r.Bounds.Period, r.Bounds.Latency))
}

func evaluateKey(r *relpipe.EvaluateRequest) string {
	return string(appendMapping(append(keyStart(r.Instance), '|'), r.Mapping))
}

func minPeriodKey(r *relpipe.MinPeriodRequest, m relpipe.Method) string {
	b := appendMethod(keyStart(r.Instance), m, r.Search)
	return string(appendFloats(append(b, '|'), r.MinReliability))
}

func frontierKey(r *relpipe.FrontierRequest) string { return r.Instance.Canonical() }

func minCostKey(r *relpipe.MinCostRequest, m relpipe.Method) string {
	b := appendMethod(keyStart(r.Instance), m, r.Search)
	b = appendFloats(append(b, '|'), r.Costs...)
	return string(appendFloats(append(b, '|'), r.MinReliability, r.Bounds.Period, r.Bounds.Latency))
}

func simulateKey(r *relpipe.SimulateRequest, routing sim.RoutingMode, reps int) string {
	b := appendMapping(append(keyStart(r.Instance), '|'), r.Mapping)
	b = appendFloats(append(b, '|'), r.Period)
	b = strconv.AppendInt(append(b, "|n="...), int64(r.DataSets), 10)
	b = strconv.AppendUint(append(b, "|s="...), r.Seed, 10)
	b = strconv.AppendBool(append(b, "|f="...), r.InjectFailures)
	b = strconv.AppendInt(append(b, "|r="...), int64(routing), 10)
	b = strconv.AppendInt(append(b, "|w="...), int64(r.WarmUp), 10)
	return string(strconv.AppendInt(append(b, "|rep="...), int64(reps), 10))
}

// adaptKey keys the search knobs only when they can shape the answer:
// through the remap policy's re-optimizations, or through the
// server-side initial Optimize (method Auto) when no mapping is
// supplied.
func adaptKey(r *relpipe.AdaptRequest, policy relpipe.AdaptPolicy, reps int) string {
	b := append(keyStart(r.Instance), '|')
	if r.Mapping != nil {
		b = appendMapping(b, *r.Mapping)
	} else {
		b = append(b, "opt"...)
	}
	b = append(append(b, "|p="...), policy.String()...)
	if policy == relpipe.AdaptRemap || r.Mapping == nil {
		b = appendSearch(b, r.Search)
	}
	b = appendFloats(append(b, '|'), r.Horizon, r.LifeScale, r.SpareCost, r.RepairLatency,
		r.Bounds.Period, r.Bounds.Latency)
	b = appendFloats(append(b, '|'), r.Costs...)
	b = strconv.AppendInt(append(b, "|sp="...), int64(r.Spares), 10)
	b = strconv.AppendUint(append(b, "|s="...), r.Seed, 10)
	return string(strconv.AppendInt(append(b, "|rep="...), int64(reps), 10))
}

// keyStart begins a key with the instance digest.
func keyStart(in relpipe.Instance) []byte {
	return append(make([]byte, 0, 192), in.Canonical()...)
}

// appendMethod appends the method's key fragment: its name, then the
// search knobs when the answer can depend on them (searchSensitive).
func appendMethod(b []byte, m relpipe.Method, sp *relpipe.SearchParams) []byte {
	b = append(append(b, "|m="...), m.String()...)
	if searchSensitive(m) {
		b = appendSearch(b, sp)
	}
	return b
}

// appendSearch appends the search knobs; nil keys as all zero.
func appendSearch(b []byte, sp *relpipe.SearchParams) []byte {
	if sp == nil {
		sp = &relpipe.SearchParams{}
	}
	b = strconv.AppendInt(append(b, "|sr="...), int64(sp.Restarts), 10)
	b = strconv.AppendInt(append(b, ",sb="...), int64(sp.Budget), 10)
	return strconv.AppendUint(append(b, ",ss="...), sp.Seed, 10)
}

// appendFloats appends floats exactly (hex mantissa, comma-separated).
func appendFloats(b []byte, fs ...float64) []byte {
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, f, 'x', -1, 64)
	}
	return b
}

// appendMapping renders a mapping canonically, as
// "parts=[0..1][2..2] procs=[[0 1] [2]]".
func appendMapping(b []byte, m relpipe.Mapping) []byte {
	b = append(b, "parts="...)
	for _, iv := range m.Parts {
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(iv.First), 10)
		b = append(b, ".."...)
		b = strconv.AppendInt(b, int64(iv.Last), 10)
		b = append(b, ']')
	}
	b = append(b, " procs=["...)
	for i, ps := range m.Procs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, '[')
		for j, p := range ps {
			if j > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(p), 10)
		}
		b = append(b, ']')
	}
	return append(b, ']')
}
