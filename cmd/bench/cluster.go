package main

import (
	"context"
	"fmt"
	"net"
	"net/http"

	"relpipe/internal/cluster"
	"relpipe/internal/rng"
)

// Cluster-mode kernels: the two per-request costs cluster routing adds
// over a single-node server. cluster-route is the pure in-memory ring
// lookup every request pays; cluster-forward is one full intra-cluster
// hop (cluster.Forward against a live in-process HTTP peer), the cost
// of a request whose owner is another node. -check holds both at their
// baseline allocs/op (cluster-route at 0), so routing cannot silently
// start allocating.

// routeKeys builds keys shaped like the real routing keys — hex
// canonical-hash strings — from a fixed seed, so every run measures
// identical lookups.
func routeKeys(n int) []string {
	r := rng.New(7)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%016x%016x%016x%016x", r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64())
	}
	return keys
}

// clusterRouteBench measures consistent-hash owner lookup on an 8-node
// ring at the default virtual-node count: one op resolves 64 keys.
func clusterRouteBench() func(sz sizes) func() {
	return func(sz sizes) func() {
		nodes := make([]string, 8)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("http://node-%d:8080", i)
		}
		ring := cluster.NewRing(nodes)
		keys := routeKeys(64)
		return func() {
			for _, k := range keys {
				sink += float64(len(ring.Owner(k)))
			}
		}
	}
}

// clusterForwardBench measures one intra-cluster hop end to end:
// cluster.Forward against an in-process peer served over a real TCP
// loopback listener, answering a fixed ~1KB solver-response-sized body.
// One op is one hop. The listener lives for the process (bench setup
// has no teardown), which is fine for a measurement binary.
func clusterForwardBench() func(sz sizes) func() {
	return func(sz sizes) func() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		body := make([]byte, 1024)
		r := rng.New(9)
		for i := range body {
			body[i] = byte('a' + r.Uint64()%26)
		}
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(body)
		})}
		go srv.Serve(ln)
		peer := "http://" + ln.Addr().String()
		self := "http://bench-self.invalid:1"
		cl, err := cluster.New(cluster.Config{Self: self, Peers: []string{self, peer}})
		if err != nil {
			panic(err)
		}
		req := []byte(`{"bench":true}`)
		return func() {
			status, b, err := cl.Forward(context.Background(), peer, http.MethodPost, "/v1/bench", req, false)
			if err != nil || status != http.StatusOK {
				panic(fmt.Sprintf("cluster-forward bench: status=%d err=%v", status, err))
			}
			sink += float64(len(b))
		}
	}
}

func init() {
	benchmarks = append(benchmarks,
		benchmark{"cluster-route", clusterRouteBench()},
		benchmark{"cluster-forward", clusterForwardBench()},
	)
}
