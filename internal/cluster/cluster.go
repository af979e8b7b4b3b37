package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strings"
	"time"

	"relpipe"
)

// Config describes one node's view of the cluster. Self must appear in
// Peers (every node is handed the same full peer list, itself included,
// which is what keeps the rings identical across the fleet).
type Config struct {
	// Self is this node's advertised base URL (how peers reach it).
	Self string
	// Peers lists every cluster member's base URL, self included.
	Peers []string
	// HopTimeout bounds one synchronous forward hop. The service
	// defaults it to its request timeout plus headroom, so a healthy
	// owner finishing a slow solve is never misread as dead; operators
	// lower it to tighten failover. Forwards for async jobs are bounded
	// by the job's context instead, never by HopTimeout.
	HopTimeout time.Duration
}

// Cluster is one node's membership state and forwarding client.
// Membership is fixed at New, so the ring and peer list are immutable
// and every method is safe for concurrent use without a lock.
type Cluster struct {
	self       string
	hopTimeout time.Duration
	client     *http.Client
	ring       *Ring
	peers      []string
}

// New validates and normalizes the config and builds the ring.
func New(cfg Config) (*Cluster, error) {
	self, err := normalizeNode(cfg.Self)
	if err != nil {
		return nil, err
	}
	peers, err := normalizePeers(cfg.Peers)
	if err != nil {
		return nil, err
	}
	if !slices.Contains(peers, self) {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", self, peers)
	}
	hop := cfg.HopTimeout
	if hop <= 0 {
		hop = 35 * time.Second
	}
	return &Cluster{
		self:       self,
		hopTimeout: hop,
		// No client-level timeout: sync hops are bounded per-call by the
		// caller's context (HopTimeout), async hops only by the job's
		// context — a blanket timeout here would kill long job forwards.
		client: &http.Client{},
		ring:   NewRing(peers),
		peers:  peers,
	}, nil
}

// normalizeNode canonicalizes one peer base URL so that equality (and
// therefore ring ownership) never depends on spelling: scheme+host
// required, trailing slashes trimmed, query/fragment rejected by
// construction.
func normalizeNode(raw string) (string, error) {
	u, err := url.Parse(strings.TrimSpace(raw))
	if err != nil {
		return "", fmt.Errorf("cluster: peer %q: %v", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("cluster: peer %q must be an http(s) base URL", raw)
	}
	u.Path = strings.TrimRight(u.Path, "/")
	u.RawQuery = ""
	u.Fragment = ""
	return u.String(), nil
}

// normalizePeers canonicalizes, dedupes and sorts a peer list.
func normalizePeers(raw []string) ([]string, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	peers := make([]string, 0, len(raw))
	for _, p := range raw {
		n, err := normalizeNode(p)
		if err != nil {
			return nil, err
		}
		peers = append(peers, n)
	}
	slices.Sort(peers)
	return slices.Compact(peers), nil
}

// Self returns this node's normalized base URL — its cluster identity.
func (c *Cluster) Self() string { return c.self }

// HopTimeout returns the per-hop bound for synchronous forwards.
func (c *Cluster) HopTimeout() time.Duration { return c.hopTimeout }

// Owner returns the node owning the routing key.
func (c *Cluster) Owner(key string) string { return c.ring.Owner(key) }

// Peers returns the member set, sorted.
func (c *Cluster) Peers() []string {
	return append([]string(nil), c.peers...)
}

// Others returns every member except self.
func (c *Cluster) Others() []string {
	out := make([]string, 0, len(c.peers)-1)
	for _, p := range c.peers {
		if p != c.self {
			out = append(out, p)
		}
	}
	return out
}

// Forward sends one intra-cluster request to a node and reads the whole
// answer. The hop carries relpipe.ForwardedHeader (the receiving node
// executes locally — one hop, never a loop) and, when async is set,
// relpipe.AsyncHeader (the receiver applies the async-job contract:
// wait for a worker slot instead of shedding 429, no request timeout).
// The caller bounds the hop through ctx. A non-nil error means the peer
// could not answer at all (connect failure, hop timeout, truncated
// body); HTTP-level failures come back as the status they are.
func (c *Cluster) Forward(ctx context.Context, node, method, path string, body []byte, async bool) (status int, respBody []byte, err error) {
	resp, err := c.open(ctx, node, method, path, body, async)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: reading %s %s%s: %w", method, node, path, err)
	}
	return resp.StatusCode, b, nil
}

// Stream opens a forwarded request and hands the raw response to the
// caller — the SSE proxy path, where the body must be relayed
// incrementally rather than read whole. The caller closes Body.
func (c *Cluster) Stream(ctx context.Context, node, method, path string) (*http.Response, error) {
	return c.open(ctx, node, method, path, nil, false)
}

func (c *Cluster) open(ctx context.Context, node, method, path string, body []byte, async bool) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, node+path, rd)
	if err != nil {
		return nil, fmt.Errorf("cluster: building %s %s%s: %w", method, node, path, err)
	}
	req.Header.Set(relpipe.ForwardedHeader, c.self)
	if async {
		req.Header.Set(relpipe.AsyncHeader, "1")
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.client.Do(req)
}

// Unavailable classifies a forward result: true means the owner cannot
// serve right now (transport error, or the 502/503 a dying process
// answers with) and the caller should fall back to a local solve. Every
// other status is a definite answer from a healthy owner — including
// 429 (its backpressure) and 4xx (the request's own fate) — and is
// relayed verbatim; re-solving those locally would turn the owner's
// intended answer into a different one.
func Unavailable(status int, err error) bool {
	return err != nil || status == http.StatusBadGateway || status == http.StatusServiceUnavailable
}
