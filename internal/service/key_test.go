package service

import (
	"encoding/json"
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
	kinds := map[string]bool{}
	for _, c := range keyGoldenCases {
		kinds[c.kind] = true
		key, _, err := batchParsers[c.kind](c.body(), s.exec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if key != digest+c.suffix {
			t.Errorf("%s: key = %q, want digest + %q", c.name, key, c.suffix)
		}
	}
	for kind := range batchParsers {
		if !kinds[kind] {
			t.Errorf("kind %q has no golden key", kind)
		}
	}
}
