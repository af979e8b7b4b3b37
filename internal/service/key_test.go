package service

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"relpipe"
)

// keyInstance is the instance every golden key case solves; its digest
// is the first 64 bytes of each key.
const keyInstance = `{"chain":[{"work":10.5,"out":2},{"work":20,"out":0.1},{"work":15,"out":0}],` +
	`"platform":{"procs":[{"speed":1,"failRate":1e-4},{"speed":2.5,"failRate":1e-4},{"speed":1,"failRate":0}],` +
	`"bandwidth":10,"linkFailRate":1e-5,"maxReplicas":2}}`

type keyCase struct{ name, kind, rest, suffix string }

// body assembles the request document: the shared instance plus the
// case's own members.
func (c keyCase) body() []byte {
	if c.rest == "" {
		return []byte(`{"instance":` + keyInstance + `}`)
	}
	return []byte(`{"instance":` + keyInstance + `,` + c.rest + `}`)
}

var keyGoldenCases = []keyCase{
	{"optimize-heuristic", "optimize", `"method":"heuristic","search":{"restarts":3,"budget":500,"seed":7},"bounds":{"period":40.5,"latency":1e-3}`,
		"|m=heuristic|sr=3,sb=500,ss=7|0x1.44p+05,0x1.0624dd2f1a9fcp-10"},
	{"optimize-exact", "optimize", `"method":"exact","search":{"restarts":3}`,
		"|m=exact|0x0p+00,0x0p+00"},
	{"evaluate", "evaluate", `"mapping":{"parts":[{"first":0,"last":1},{"first":2,"last":2}],"procs":[[0,1],[2]]}`,
		"|parts=[0..1][2..2] procs=[[0 1] [2]]"},
	{"evaluate-empty-mapping", "evaluate", `"mapping":{"parts":[],"procs":[[],[12]]}`,
		"|parts= procs=[[] [12]]"},
	{"evaluate-no-mapping", "evaluate", ``,
		"|parts= procs=[]"},
	{"minperiod", "minperiod", `"minReliability":0.9`,
		"|m=auto|sr=0,sb=0,ss=0|0x1.ccccccccccccdp-01"},
	{"frontier", "frontier", ``,
		""},
	{"mincost", "mincost", `"method":"dp","costs":[1.5,2,0.25],"minReliability":0.99,"bounds":{"period":-0.0,"latency":300}`,
		"|m=dp|0x1.8p+00,0x1p+01,0x1p-02|0x1.fae147ae147aep-01,-0x0p+00,0x1.2cp+08"},
	{"simulate", "simulate", `"mapping":{"parts":[{"first":0,"last":2}],"procs":[[0,2]]},"period":12.75,"dataSets":50,"injectFailures":true,"routing":"two-hop","warmUp":3,"replications":4`,
		"|parts=[0..2] procs=[[0 2]]|0x1.98p+03|n=50|s=1|f=true|r=1|w=3|rep=4"},
	{"adapt-optimized", "adapt", `"horizon":1e6,"bounds":{"period":80},"lifeScale":0.5,"spares":2,"spareCost":3.25,"costs":[1,2,3],"repairLatency":0.125,"seed":9,"replications":2,"search":{"restarts":2,"budget":100,"seed":5}`,
		"|opt|p=remap|sr=2,sb=100,ss=5|0x1.e848p+19,0x1p-01,0x1.ap+01,0x1p-03,0x1.4p+06,0x0p+00|0x1p+00,0x1p+01,0x1.8p+01|sp=2|s=9|rep=2"},
	{"adapt-greedy", "adapt", `"mapping":{"parts":[{"first":0,"last":0},{"first":1,"last":2}],"procs":[[1],[0,2]]},"policy":"greedy","horizon":500,"search":{"restarts":2}`,
		"|parts=[0..0][1..2] procs=[[1] [0 2]]|p=greedy|0x1.f4p+08,0x0p+00,0x0p+00,0x0p+00,0x0p+00,0x0p+00||sp=0|s=1|rep=1"},
}

// TestKeySuffixGolden pins every kind's cache key byte for byte after
// the instance digest: the suffix encodes the knobs that shape an
// answer, and a silent change would split or merge cache entries.
func TestKeySuffixGolden(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	var in relpipe.Instance
	if err := json.Unmarshal([]byte(keyInstance), &in); err != nil {
		t.Fatal(err)
	}
	digest := in.Canonical()
	covered := map[string]bool{}
	for _, c := range keyGoldenCases {
		covered[c.kind] = true
		key, _, err := kinds[c.kind].parse(c.body(), s.exec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if key != digest+c.suffix {
			t.Errorf("%s: key = %q, want digest + %q", c.name, key, c.suffix)
		}
	}
	for kind := range kinds {
		if !covered[kind] {
			t.Errorf("kind %q has no golden key", kind)
		}
	}
}

// keyBase is one request TestKeyCoverage perturbs field by field.
type keyBase struct {
	name, kind string
	req        any // pointer to the request DTO
}

// keyBases sets every field of every kind's request, and adds, for each
// kind with search knobs, a base under a method or policy that ignores
// them.
func keyBases(t *testing.T) []keyBase {
	inst := func() relpipe.Instance {
		var in relpipe.Instance
		if err := json.Unmarshal([]byte(keyInstance), &in); err != nil {
			t.Fatal(err)
		}
		return in
	}
	mp := func() relpipe.Mapping {
		return relpipe.Mapping{
			Parts: relpipe.Partition{{First: 0, Last: 1}, {First: 2, Last: 2}},
			Procs: [][]int{{0, 1}, {2}},
		}
	}
	sp := func() *relpipe.SearchParams { return &relpipe.SearchParams{Restarts: 3, Budget: 500, Seed: 7} }
	optimize := func(method string) *relpipe.OptimizeRequest {
		return &relpipe.OptimizeRequest{Instance: inst(), Bounds: relpipe.Bounds{Period: 40.5, Latency: 300},
			Method: method, Search: sp()}
	}
	minPeriod := func(method string) *relpipe.MinPeriodRequest {
		return &relpipe.MinPeriodRequest{Instance: inst(), MinReliability: 0.9, Method: method, Search: sp()}
	}
	minCost := func(method string) *relpipe.MinCostRequest {
		return &relpipe.MinCostRequest{Instance: inst(), Costs: []float64{1.5, 2, 0.25}, MinReliability: 0.99,
			Bounds: relpipe.Bounds{Period: 40.5, Latency: 300}, Method: method, Search: sp()}
	}
	adapt := func(policy string) *relpipe.AdaptRequest {
		m := mp()
		return &relpipe.AdaptRequest{Instance: inst(), Mapping: &m, Policy: policy, Horizon: 1e6,
			Bounds: relpipe.Bounds{Period: 80, Latency: 900}, LifeScale: 0.5, Spares: 2, SpareCost: 3.25,
			Costs: []float64{1, 2, 3}, RepairLatency: 0.125, Seed: 9, Replications: 2, Search: sp()}
	}
	return []keyBase{
		{"optimize-heuristic", "optimize", optimize("heuristic")},
		{"optimize-exact", "optimize", optimize("exact")},
		{"evaluate", "evaluate", &relpipe.EvaluateRequest{Instance: inst(), Mapping: mp()}},
		{"minperiod-heuristic", "minperiod", minPeriod("heuristic")},
		{"minperiod-dp", "minperiod", minPeriod("dp")},
		{"frontier", "frontier", &relpipe.FrontierRequest{Instance: inst()}},
		{"mincost-heuristic", "mincost", minCost("heuristic")},
		{"mincost-exact", "mincost", minCost("exact")},
		{"simulate", "simulate", &relpipe.SimulateRequest{Instance: inst(), Mapping: mp(), Period: 12.75,
			DataSets: 50, Seed: 9, InjectFailures: true, Routing: "two-hop", WarmUp: 3, Replications: 4}},
		{"adapt-remap", "adapt", adapt("remap")},
		{"adapt-greedy", "adapt", adapt("greedy")},
	}
}

// keyExempt lists the fields whose every change may leave a base's key
// unchanged, each with why the answer cannot change.
var keyExempt = []struct{ base, prefix, why string }{
	{"optimize-exact", "Search.", "exact answers never depend on the search knobs"},
	{"minperiod-dp", "Search.", "DP answers never depend on the search knobs"},
	{"mincost-exact", "Search.", "exact answers never depend on the search knobs"},
	{"adapt-greedy", "Search.", "the greedy policy over a supplied mapping never searches"},
}

// keyAliases lists the pairs of values of one field that must share a
// key, each with why they mean the same request.
var keyAliases = []struct {
	base, path string
	a, b       any
	why        string
}{
	{"simulate", "Seed", uint64(0), uint64(1), "seed 0 aliases the default seed 1"},
	{"adapt-remap", "Seed", uint64(0), uint64(1), "seed 0 aliases the default seed 1"},
	{"optimize-heuristic", "Method", "", "auto", "an empty method means auto"},
	{"minperiod-heuristic", "Method", "", "auto", "an empty method means auto"},
	{"mincost-heuristic", "Method", "", "auto", "an empty method means auto"},
	{"simulate", "Routing", "", "one-hop", "an empty routing means one-hop"},
	{"adapt-remap", "Policy", "", "remap", "an empty policy means remap"},
	{"simulate", "Replications", 0, 1, "0 replications run one"},
	{"adapt-remap", "Replications", 0, 1, "0 replications run one"},
}

// keyNames are the values a string field of a request can take.
var keyNames = map[string][]string{
	"Method":  {"", "auto", "heur-p", "heur-l", "best-heuristic", "dp", "exact", "ilp", "heuristic"},
	"Routing": {"", "one-hop", "two-hop"},
	"Policy":  {"", "remap", "spares", "greedy", "none"},
}

// TestKeyCoverage: changing any field of any request changes its cache
// key, unless keyExempt or keyAliases names the change; a field added
// to a request DTO but not to its key would otherwise serve another
// request's cached answer. Every listed alias must really share a key.
func TestKeyCoverage(t *testing.T) {
	s := NewServer(Options{})
	defer s.Close()
	keyOf := func(b keyBase) string {
		t.Helper()
		body, err := json.Marshal(b.req)
		if err != nil {
			t.Fatal(err)
		}
		key, _, err := kinds[b.kind].parse(body, s.exec)
		if err != nil {
			t.Fatalf("%s: %v: %s", b.name, err, body)
		}
		return key
	}
	exempt := func(base, path string, from, to any) bool {
		for _, e := range keyExempt {
			if e.base == base && strings.HasPrefix(path, e.prefix) {
				return true
			}
		}
		for _, a := range keyAliases {
			if a.base == base && a.path == path && (from == a.a && to == a.b || from == a.b && to == a.a) {
				return true
			}
		}
		return false
	}
	for _, b := range keyBases(t) {
		want := keyOf(b)
		forEachLeaf(reflect.ValueOf(b.req), "", func(path string, leaf reflect.Value) {
			from := leaf.Interface()
			for _, to := range perturbations(t, path, leaf) {
				leaf.Set(reflect.ValueOf(to))
				if keyOf(b) == want && !exempt(b.name, path, from, to) {
					t.Errorf("%s: %s %v -> %v leaves the key unchanged", b.name, path, from, to)
				}
			}
			leaf.Set(reflect.ValueOf(from))
		})
	}
	bases := map[string]keyBase{}
	for _, b := range keyBases(t) {
		bases[b.name] = b
	}
	for _, a := range keyAliases {
		b := bases[a.base]
		var keys []string
		for _, v := range []any{a.a, a.b} {
			forEachLeaf(reflect.ValueOf(b.req), "", func(path string, leaf reflect.Value) {
				if path == a.path {
					leaf.Set(reflect.ValueOf(v).Convert(leaf.Type()))
				}
			})
			keys = append(keys, keyOf(b))
		}
		if keys[0] != keys[1] {
			t.Errorf("%s: %s %v and %v have different keys, but %s", a.base, a.path, a.a, a.b, a.why)
		}
	}
}

// forEachLeaf calls visit on every scalar field reachable from v, with
// its path ("Instance.Chain[2].Out").
func forEachLeaf(v reflect.Value, path string, visit func(path string, leaf reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			forEachLeaf(v.Elem(), path, visit)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			forEachLeaf(v.Field(i), name, visit)
		}
	case reflect.Slice:
		for i := range v.Len() {
			forEachLeaf(v.Index(i), fmt.Sprintf("%s[%d]", path, i), visit)
		}
	default:
		visit(path, v)
	}
}

// perturbations are the other values TestKeyCoverage gives a field, all
// of which keep the request valid: a float scaled (0 becomes -0, which
// keeps a last task's zero output valid), an integer incremented, a
// bool flipped, a name replaced by every other name of its field.
func perturbations(t *testing.T, path string, leaf reflect.Value) []any {
	switch leaf.Kind() {
	case reflect.Float64:
		if f := leaf.Float(); f != 0 {
			return []any{f * 1.5}
		}
		return []any{math.Copysign(0, -1)}
	case reflect.Int:
		return []any{int(leaf.Int()) + 1}
	case reflect.Uint64:
		return []any{leaf.Uint() + 1}
	case reflect.Bool:
		return []any{!leaf.Bool()}
	case reflect.String:
		names, ok := keyNames[path]
		if !ok {
			t.Fatalf("%s: no known values for this string field", path)
		}
		var out []any
		for _, n := range names {
			if n != leaf.String() {
				out = append(out, n)
			}
		}
		return out
	}
	t.Fatalf("%s: no perturbation for kind %s", path, leaf.Kind())
	return nil
}
