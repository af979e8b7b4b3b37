package main

import (
	"encoding/json"

	"relpipe"
	"relpipe/internal/chain"
	"relpipe/internal/jsonscan"
	"relpipe/internal/platform"
	"relpipe/internal/rng"
	"relpipe/internal/service"
)

// Request-codec kernels: the decode of a served /v1 request document.
// request-codec runs service.DecodeRequest, the one-pass codec the
// endpoints use; request-codec-ref runs jsonscan.Strict, the
// encoding/json reference it falls back to, into the same request
// types. One op decodes the same fixed set of documents shaped like
// the hot-cache and mixed-cluster traffic of cmd/loadgen, so the ratio
// of the two is the codec's speedup, the "request-codec" entry in
// Speedups that -minratio gates.

// codecDoc is one request document with the DTO type its kind decodes
// into.
type codecDoc struct {
	kind   string
	body   []byte
	newReq func() any
}

func newDoc[T any](kind string, req T) codecDoc {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return codecDoc{kind: kind, body: b, newReq: func() any { return new(T) }}
}

// codecDocs draws the fixed document set: hot-cache's mix of frontier,
// dp or heuristic optimize, evaluate and simulate requests over
// 100-task heterogeneous and 12-task homogeneous instances, and
// mixed-cluster's evaluate, dp and exact optimize and frontier
// requests over 10- to 15-task homogeneous ones.
func codecDocs() []codecDoc {
	r := rng.New(7)
	var docs []codecDoc
	for i := 0; i < 16; i++ {
		in := relpipe.Instance{Chain: chain.PaperRandom(r, 12), Platform: platform.PaperHomogeneous(10)}
		if i%4 == 0 {
			in = relpipe.Instance{Chain: chain.PaperRandom(r, 100), Platform: platform.PaperHeterogeneous(r, 30)}
		}
		switch i % 4 {
		case 0:
			docs = append(docs, newDoc("optimize", relpipe.OptimizeRequest{Instance: in, Method: "heuristic",
				Bounds: relpipe.Bounds{Period: r.Uniform(40, 60), Latency: r.Uniform(900, 1300)},
				Search: &relpipe.SearchParams{Restarts: 2, Budget: 500, Seed: r.Uint64()>>1 | 1}}))
		case 1:
			docs = append(docs, newDoc("frontier", relpipe.FrontierRequest{Instance: in}))
		case 2:
			docs = append(docs, newDoc("evaluate", relpipe.EvaluateRequest{Instance: in, Mapping: codecMapping(r, in)}))
		default:
			docs = append(docs, newDoc("simulate", relpipe.SimulateRequest{Instance: in, Mapping: codecMapping(r, in),
				Period: r.Uniform(100, 200), DataSets: 200, Seed: r.Uint64()>>1 | 1, InjectFailures: true,
				Routing: "two-hop", Replications: 1}))
		}
	}
	for i := 0; i < 16; i++ {
		in := relpipe.Instance{Chain: chain.PaperRandom(r, 10+i%6), Platform: platform.PaperHomogeneous(10)}
		switch i % 4 {
		case 0, 1:
			docs = append(docs, newDoc("evaluate", relpipe.EvaluateRequest{Instance: in, Mapping: codecMapping(r, in)}))
		case 2:
			req := relpipe.OptimizeRequest{Instance: in, Method: "exact",
				Bounds: relpipe.Bounds{Period: r.Uniform(100, 150), Latency: r.Uniform(400, 600)}}
			if i%8 == 2 {
				req.Method, req.Bounds.Latency = "dp", 0
			}
			docs = append(docs, newDoc("optimize", req))
		default:
			docs = append(docs, newDoc("frontier", relpipe.FrontierRequest{Instance: in}))
		}
	}
	return docs
}

// codecMapping draws a mapping of up to 8 even intervals, each on 1 to
// K distinct processors from a random offset, as loadgen's requests
// carry.
func codecMapping(r *rng.Rand, in relpipe.Instance) relpipe.Mapping {
	n, p := len(in.Chain), in.Platform.P()
	m := 1 + r.IntN(min(n, p, 8))
	base, u := r.IntN(p), 0
	var mp relpipe.Mapping
	for j := 0; j < m; j++ {
		mp.Parts = append(mp.Parts, relpipe.Interval{First: j * n / m, Last: (j+1)*n/m - 1})
		var procs []int
		for reps := 1 + r.IntN(min(in.Platform.MaxReplicas, p-u-(m-1-j))); reps > 0; reps-- {
			procs = append(procs, (base+u)%p)
			u++
		}
		mp.Procs = append(mp.Procs, procs)
	}
	return mp
}

// requestCodecBench decodes every document of codecDocs through the
// codec or, with ref, through Strict alone.
func requestCodecBench(ref bool) func(sz sizes) func() {
	return func(sz sizes) func() {
		docs := codecDocs()
		return func() {
			for _, d := range docs {
				if ref {
					if err := jsonscan.Strict(d.body, d.newReq()); err != nil {
						panic(err)
					}
					continue
				}
				if _, err := service.DecodeRequest(d.kind, d.body); err != nil {
					panic(err)
				}
			}
			sink += float64(len(docs))
		}
	}
}

func init() {
	benchmarks = append(benchmarks,
		benchmark{"request-codec", requestCodecBench(false)},
		benchmark{"request-codec-ref", requestCodecBench(true)},
	)
}
