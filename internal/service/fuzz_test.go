package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"relpipe/internal/chain"
	"relpipe/internal/jsonscan"
	"relpipe/internal/platform"
)

// fuzzKinds maps the fuzzer's kind byte onto every /v1 solve kind and
// /v1/batch.
var fuzzKinds = []string{"optimize", "evaluate", "minperiod", "frontier", "mincost", "simulate", "adapt", "batch"}

// FuzzRequestDecode drives arbitrary bodies through the request path of
// every solve kind and /v1/batch. Invariants: the answer is 200 or a
// 4xx (504 only when a fuzzer-grown solve outlives the request
// timeout), never a 500 or a panic; the cache key is deterministic; a
// 200 re-serves byte-identically; the body, and every batch item in
// it, decodes as each solve kind through the one-pass request codec to
// the same accept/reject, error text and fields, floats by their bits,
// as through the encoding/json reference alone; and so does every
// instance array in it through the production Chain and Platform
// types. The committed corpus in testdata/fuzz/FuzzRequestDecode
// replays in every `go test` run.
func FuzzRequestDecode(f *testing.F) {
	// Small search caps bound the search work a mutated body may ask
	// for on the only worker; maxSimDataSets bounds simulate bodies.
	s := NewServer(Options{Workers: 1, RequestTimeout: 2 * time.Second, DisableFleet: true,
		MaxSearchRestarts: 2, MaxSearchBudget: 1000})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, k uint8, body []byte) {
		kind := fuzzKinds[int(k)%len(fuzzKinds)]
		checkDecodeOracle(t, body)
		checkKeyDeterministic(t, s, kind, body)

		status, first := serveOnce(s, kind, body)
		if !acceptableStatus(status) {
			t.Fatalf("%s: status %d (%s)", kind, status, first)
		}
		if kind == "batch" && status == http.StatusOK {
			var br struct{ Results []struct{ Status int } }
			if err := json.Unmarshal(first, &br); err != nil {
				t.Fatalf("batch: undecodable 200 body %s: %v", first, err)
			}
			for i, r := range br.Results {
				if !acceptableStatus(r.Status) {
					t.Fatalf("batch item %d: status %d (%s)", i, r.Status, first)
				}
			}
		}
		if status == http.StatusOK {
			again, second := serveOnce(s, kind, body)
			if again != http.StatusOK || !bytes.Equal(first, second) {
				t.Fatalf("%s: re-serve gave %d %s, first answer was 200 %s", kind, again, second, first)
			}
		}
	})
}

// acceptableStatus: 200, a 4xx, or the 504 of the request-timeout
// contract.
func acceptableStatus(status int) bool {
	return status == http.StatusOK || status == http.StatusGatewayTimeout ||
		(status >= 400 && status < 500)
}

func serveOnce(s *Server, kind string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+kind, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// checkKeyDeterministic parses body twice (every item, for a batch) and
// requires the same key or the same error both times.
func checkKeyDeterministic(t *testing.T, s *Server, kind string, body []byte) {
	t.Helper()
	type item struct {
		kind string
		body []byte
	}
	items := []item{{kind, body}}
	if kind == "batch" {
		batch, err := s.parseBatch(body)
		if err != nil {
			return
		}
		items = items[:0]
		for _, j := range batch.Jobs {
			items = append(items, item{j.Kind, j.Request})
		}
	}
	for _, it := range items {
		k, ok := kinds[it.kind]
		if !ok {
			continue
		}
		k1, _, err1 := k.parse(it.body, s.exec)
		k2, _, err2 := k.parse(it.body, s.exec)
		if k1 != k2 || (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: parse not deterministic: %q/%v then %q/%v", it.kind, k1, err1, k2, err2)
		}
	}
}

// checkDecodeOracle compares the production decode of a request
// document (batch items included) against the reference decode: the
// whole document as every solve kind, and the chain and platform of
// its instance on their own.
func checkDecodeOracle(t *testing.T, body []byte) {
	t.Helper()
	checkDocumentOracle(t, body)
	// The body itself too, so the scanner also meets arbitrary bytes,
	// not only documents encoding/json already found well-formed.
	compareChain(t, body)
	comparePlatform(t, body)
	var probe struct {
		Instance struct {
			Chain    json.RawMessage `json:"chain"`
			Platform json.RawMessage `json:"platform"`
		} `json:"instance"`
		Jobs []struct {
			Request json.RawMessage `json:"request"`
		} `json:"jobs"`
	}
	if json.Unmarshal(body, &probe) != nil {
		return
	}
	if raw := probe.Instance.Chain; raw != nil {
		compareChain(t, raw)
	}
	if raw := probe.Instance.Platform; raw != nil {
		comparePlatform(t, raw)
	}
	for _, j := range probe.Jobs {
		checkDecodeOracle(t, j.Request)
	}
}

func compareChain(t *testing.T, raw []byte) {
	t.Helper()
	var got chain.Chain
	errGot := got.UnmarshalJSON(raw)
	var ref []chain.Task
	errRef := jsonscan.Strict(raw, &ref)
	if errRef == nil {
		errRef = chain.Chain(ref).Validate()
	}
	agree(t, "chain", raw, errGot, errRef, chainBits(got), chainBits(ref))
}

func comparePlatform(t *testing.T, raw []byte) {
	t.Helper()
	var got platform.Platform
	errGot := got.UnmarshalJSON(raw)
	type plain platform.Platform // the struct encoding, without the scanner
	var ref plain
	errRef := jsonscan.Strict(raw, &ref)
	if errRef == nil {
		errRef = platform.Platform(ref).Validate()
	}
	agree(t, "platform", raw, errGot, errRef, platformBits(got), platformBits(platform.Platform(ref)))
}

func agree(t *testing.T, what string, raw []byte, errGot, errRef error, got, ref []uint64) {
	t.Helper()
	switch {
	case (errGot == nil) != (errRef == nil):
		t.Fatalf("%s %s: production error %v, reference error %v", what, raw, errGot, errRef)
	case errGot == nil && !slices.Equal(got, ref):
		t.Fatalf("%s %s: production bits %x, reference bits %x", what, raw, got, ref)
	}
}

func chainBits(c []chain.Task) []uint64 {
	bits := make([]uint64, 0, 2*len(c))
	for _, t := range c {
		bits = append(bits, math.Float64bits(t.Work), math.Float64bits(t.Out))
	}
	return bits
}

func platformBits(pl platform.Platform) []uint64 {
	bits := make([]uint64, 0, 2*len(pl.Procs)+3)
	for _, p := range pl.Procs {
		bits = append(bits, math.Float64bits(p.Speed), math.Float64bits(p.FailRate))
	}
	return append(bits, math.Float64bits(pl.Bandwidth), math.Float64bits(pl.LinkFailRate), uint64(pl.MaxReplicas))
}
