package service

// Solve batching: the singleflight seam (dedup.go) collapses requests
// with *identical* cache keys onto one solve; this file extends the
// idea one level up the key. Concurrent requests that differ in bounds,
// method or search knobs — distinct cache keys, distinct solves — but
// target the same instance share the leading Instance.Canonical()
// segment of their keys (Request.Route), and every heuristic search
// over one instance starts by building the same §7 partition tables.
// The tableBatcher coalesces those builds: members join their route's
// refcounted entry for the duration of their solve or executeWait (queue
// wait included, so riders coalesce even on a one-worker pool), and the
// first member whose solve actually needs the tables builds them once
// for everyone. Tables never depend on bounds or knobs and are
// immutable after construction (see heur.Tables), so sharing them never
// changes an answer — responses stay byte-identical to unbatched ones.

import (
	"sync"

	"relpipe"
)

// tableBatcher coalesces heuristic-table construction across the
// concurrent requests of one canonical instance. Every Server has one;
// a request without a route gets a nil entry, which is inert.
type tableBatcher struct {
	metrics *Metrics
	mu      sync.Mutex
	entries map[string]*batchEntry
}

func newTableBatcher(m *Metrics) *tableBatcher {
	return &tableBatcher{metrics: m, entries: make(map[string]*batchEntry)}
}

// batchEntry is the shared state of one in-flight batch: every request
// on one instance route between the first join and the last leave.
type batchEntry struct {
	b     *tableBatcher
	route string
	refs  int // current members; entry drains at 0
	size  int // members ever joined; the batch-size observation

	once   sync.Once
	tables *relpipe.HeuristicTables
}

// join registers a request for the instance route and returns its
// entry; the caller must leave() exactly once. An empty route yields a
// nil entry, which leave and provider treat as inert.
func (b *tableBatcher) join(route string) *batchEntry {
	if route == "" {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := b.entries[route]
	if e == nil {
		e = &batchEntry{b: b, route: route}
		b.entries[route] = e
	} else {
		b.metrics.BatchCoalesce()
	}
	e.refs++
	e.size++
	return e
}

// leave removes one member. The last one out drains the entry and
// records the batch size; a later identical request starts a new batch.
func (e *batchEntry) leave() {
	if e == nil {
		return
	}
	e.b.mu.Lock()
	defer e.b.mu.Unlock()
	e.refs--
	if e.refs == 0 {
		delete(e.b.entries, e.route)
		e.b.metrics.BatchSize(float64(e.size))
	}
}

// provider is the relpipe.Options.Tables hook handed to a member's
// solve. It builds the shared tables on first use — only a solve that
// actually seeds a heuristic search invokes it, so exact/DP routes
// never build in vain — and guards the sharing contract by canonical
// hash: a solve may re-optimize a *different* instance than the one it
// was keyed under (the adapt policies re-map degraded platforms
// mid-solve), and those must not receive this route's tables. Declining
// (nil) just means the search builds its own.
//
// provider stays valid after leave: the synchronous path detaches
// solves from their request, so a solve can outlive its member's
// wait (the waiter got 504, the solve still lands in the cache). The
// entry it captured is immutable apart from the once-built tables.
func (e *batchEntry) provider(in relpipe.Instance) *relpipe.HeuristicTables {
	if e == nil || in.Canonical() != e.route {
		return nil
	}
	e.once.Do(func() {
		e.tables = relpipe.BuildHeuristicTables(in)
		e.b.metrics.TableBuilt()
	})
	return e.tables
}
