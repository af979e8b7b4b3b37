// Package cluster implements the peer layer of the clustered solver
// service: static membership over a consistent-hash ring plus the HTTP
// forwarding client the service uses to route a request to the node
// that owns its instance.
//
// Membership is static (cmd/serve's -peers flag lists every node's base
// URL, self included) and ownership is consistent hashing with virtual
// nodes: every peer contributes DefaultReplicas points on a 64-bit FNV-1a
// ring, and a key is owned by the first point clockwise from its hash.
// The ring is deterministic for a given peer set regardless of input
// order, so every member computes the same owner for every key without
// any coordination. Membership is fixed for a node's lifetime, so the
// ring is built once and read without a lock; across restarts with a
// changed peer list, consistent hashing guarantees that adding a node
// only moves keys onto the new node and removing one only moves its own
// keys.
//
// Forward is the one intra-cluster hop: it replays the original request
// document against the owner's own /v1 endpoint, marked with the
// relpipe.ForwardedHeader so the receiving node always executes locally
// (one hop, never a routing loop). The service layers its policy on
// top — local-cache-first, forward-collapsing singleflight, and the
// local-solve fallback when the owner is unreachable (see
// internal/service's cluster backend and DESIGN.md "Cluster mode").
package cluster
