package service

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"relpipe"
	"relpipe/internal/chain"
	"relpipe/internal/jsonscan"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
)

// kindScans runs each solve kind's one-pass scan alone, without the
// Strict fallback, and reports whether it accepted the document.
var kindScans = map[string]func(body []byte) bool{
	"optimize":  scanOnly(scanOptimize),
	"evaluate":  scanOnly(scanEvaluate),
	"minperiod": scanOnly(scanMinPeriod),
	"frontier":  scanOnly(scanFrontier),
	"mincost":   scanOnly(scanMinCost),
	"simulate":  scanOnly(scanSimulate),
	"adapt":     scanOnly(scanAdapt),
}

func scanOnly[T any](scan func(*jsonscan.Scanner, *T)) func([]byte) bool {
	return func(body []byte) bool { return scanDocument(body, new(T), scan) }
}

// commonRequests builds one request DTO per solve kind in the shapes
// the load generator sends: §8.2 heterogeneous instances of 100 tasks
// on 30 processors and §8.1 homogeneous ones of 12 on 10, seeded
// search knobs, multi-interval mappings and every simulate and adapt
// knob those workloads set.
func commonRequests() map[string]any {
	r := rng.New(7)
	het := relpipe.Instance{Chain: chain.PaperRandom(r, 100), Platform: platform.PaperHeterogeneous(r, 30)}
	hom := relpipe.Instance{Chain: chain.PaperRandom(r, 12), Platform: platform.PaperHomogeneous(10)}
	m := relpipe.Mapping{
		Parts: relpipe.Partition{{First: 0, Last: 30}, {First: 31, Last: 64}, {First: 65, Last: 99}},
		Procs: [][]int{{4, 17}, {2}, {29, 0, 11}},
	}
	costs := make([]float64, het.Platform.P())
	for u := range costs {
		costs[u] = float64(1 + r.IntN(10))
	}
	search := &relpipe.SearchParams{Restarts: 2, Budget: 500, Seed: r.Uint64()>>1 | 1}
	bounds := relpipe.Bounds{Period: r.Uniform(50, 80), Latency: r.Uniform(900, 1400)}
	return map[string]any{
		"optimize":  relpipe.OptimizeRequest{Instance: het, Bounds: bounds, Method: "heuristic", Search: search},
		"evaluate":  relpipe.EvaluateRequest{Instance: het, Mapping: m},
		"minperiod": relpipe.MinPeriodRequest{Instance: het, MinReliability: 0.9993, Method: "heuristic", Search: search},
		"frontier":  relpipe.FrontierRequest{Instance: hom},
		"mincost": relpipe.MinCostRequest{Instance: het, Costs: costs, Bounds: bounds,
			Method: "heuristic", Search: search},
		"simulate": relpipe.SimulateRequest{Instance: het, Mapping: m, Period: bounds.Period, DataSets: 200,
			Seed: search.Seed, InjectFailures: true, Routing: "two-hop", Replications: 4},
		"adapt": relpipe.AdaptRequest{Instance: het, Mapping: &m, Policy: "spares", Horizon: 2000,
			Bounds: relpipe.Bounds{Period: bounds.Period * 1.5}, LifeScale: 2e4, Spares: 2, SpareCost: 1,
			RepairLatency: 0.5, Seed: search.Seed, Replications: 4},
	}
}

// TestCodecAcceptsCommonDocuments: the one-pass codec accepts, without
// falling back to Strict, every golden key document and a document of
// each kind shaped like the served traffic, and decodes each as Strict
// does. The decode oracle alone cannot catch a codec that always
// declines: that codec is correct, and as slow as Strict.
func TestCodecAcceptsCommonDocuments(t *testing.T) {
	for _, c := range keyGoldenCases {
		if !kindScans[c.kind](c.body()) {
			t.Errorf("%s: codec declined the golden key document %s", c.name, c.body())
		}
		checkDocumentOracle(t, c.body())
	}
	reqs := commonRequests()
	for kind := range kinds {
		body, err := json.Marshal(reqs[kind])
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !kindScans[kind](body) {
			t.Errorf("%s: codec declined the common %d-byte document", kind, len(body))
		}
		checkDocumentOracle(t, body)
	}
}

// checkDocumentOracle decodes body as every solve kind through the
// production codec and through Strict alone, and requires the two to
// agree on accept/reject, on the error text, and on every decoded
// field, floats by their bits.
func checkDocumentOracle(t *testing.T, body []byte) {
	t.Helper()
	for kind := range kindScans {
		got, errGot := DecodeRequest(kind, body)
		ref := reflect.New(reflect.TypeOf(got).Elem())
		errRef := jsonscan.Strict(body, ref.Interface())
		switch {
		case (errGot == nil) != (errRef == nil):
			t.Fatalf("%s %s: codec error %v, reference error %v", kind, body, errGot, errRef)
		case errGot != nil && errGot.Error() != errRef.Error():
			t.Fatalf("%s %s: codec error %q, reference error %q", kind, body, errGot, errRef)
		case errGot == nil && !sameBits(reflect.ValueOf(got), ref):
			t.Fatalf("%s %s: codec decoded %+v, reference %+v", kind, body, got, ref.Interface())
		}
	}
}

// sameBits is deep equality with floats compared by their bits (so -0
// differs from 0 and a NaN equals itself) and nil slices and pointers
// told from empty or zero ones.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}
