package cluster

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"relpipe"
)

func TestNormalizeNode(t *testing.T) {
	cases := []struct {
		in, want string
		wantErr  bool
	}{
		{in: "http://a:8080", want: "http://a:8080"},
		{in: "http://a:8080/", want: "http://a:8080"},
		{in: "  https://a.example/base/ ", want: "https://a.example/base"},
		{in: "a:8080", wantErr: true}, // no scheme
		{in: "ftp://a:8080", wantErr: true},
		{in: "http://", wantErr: true}, // no host
	}
	for _, c := range cases {
		got, err := normalizeNode(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("normalizeNode(%q) = %q, want error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("normalizeNode(%q) = %q, %v; want %q", c.in, got, err, c.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Self: "http://a:1", Peers: []string{"http://b:1"}}); err == nil {
		t.Error("self outside the peer list must be rejected")
	}
	if _, err := New(Config{Self: "http://a:1", Peers: nil}); err == nil {
		t.Error("empty peer list must be rejected")
	}
	// Trailing-slash spellings of the same node normalize together.
	c, err := New(Config{Self: "http://a:1/", Peers: []string{"http://a:1", "http://a:1/", "http://b:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Peers(); !slices.Equal(got, []string{"http://a:1", "http://b:1"}) {
		t.Errorf("peers = %v, want deduped sorted pair", got)
	}
	if got := c.Others(); !slices.Equal(got, []string{"http://b:1"}) {
		t.Errorf("others = %v", got)
	}
}

// TestForward exercises the one intra-cluster hop against a live peer:
// header contract (forwarded marker, async marker, content type), body
// round-trip, verbatim status relay, and the context bound.
func TestForward(t *testing.T) {
	type seen struct {
		forwarded, async, contentType, method, path, body string
	}
	var got seen
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		got = seen{
			forwarded:   r.Header.Get(relpipe.ForwardedHeader),
			async:       r.Header.Get(relpipe.AsyncHeader),
			contentType: r.Header.Get("Content-Type"),
			method:      r.Method,
			path:        r.URL.Path,
			body:        string(b),
		}
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer peer.Close()

	c, err := New(Config{Self: "http://self.invalid:1", Peers: []string{"http://self.invalid:1", peer.URL}})
	if err != nil {
		t.Fatal(err)
	}
	status, body, err := c.Forward(context.Background(), peer.URL, http.MethodPost, "/v1/optimize", []byte(`{"x":1}`), true)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTeapot || string(body) != `{"ok":true}` {
		t.Errorf("forward = %d %q", status, body)
	}
	if got.forwarded != "http://self.invalid:1" {
		t.Errorf("forwarded header = %q, want self URL", got.forwarded)
	}
	if got.async != "1" || got.contentType != "application/json" ||
		got.method != http.MethodPost || got.path != "/v1/optimize" || got.body != `{"x":1}` {
		t.Errorf("hop contract violated: %+v", got)
	}

	// A context deadline severs the hop with a transport error.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer slow.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := c.Forward(ctx, slow.URL, http.MethodGet, "/healthz", nil, false); err == nil {
		t.Error("expected a transport error from the deadline")
	}
}

func TestUnavailable(t *testing.T) {
	cases := []struct {
		status int
		err    error
		want   bool
	}{
		{status: 0, err: context.DeadlineExceeded, want: true},
		{status: http.StatusBadGateway, want: true},
		{status: http.StatusServiceUnavailable, want: true},
		{status: http.StatusOK, want: false},
		{status: http.StatusTooManyRequests, want: false}, // the owner's backpressure is an answer
		{status: http.StatusUnprocessableEntity, want: false},
		{status: http.StatusGatewayTimeout, want: false}, // the owner answered; local retry would also time out
	}
	for _, c := range cases {
		if got := Unavailable(c.status, c.err); got != c.want {
			t.Errorf("Unavailable(%d, %v) = %t, want %t", c.status, c.err, got, c.want)
		}
	}
}
