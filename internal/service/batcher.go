package service

// Heuristic-table tier: every heuristic search over one instance starts
// by building the same §7 partition tables (Heur-P's Algorithm 4 table
// and Heur-L's cut ordering). They depend only on the chain and the
// platform, never on bounds, method or search knobs, so the tier keeps
// them per instance route (Request.Route, the leading
// Instance.Canonical() segment of every cache key) across requests:
// concurrent requests on one instance share one build, and later ones
// build nothing. Tables are immutable after construction (see
// heur.Tables), so sharing them never changes an answer — responses
// stay byte-identical to a per-request build. Each Tables value also
// carries a seed memo that searches fill as they run (one §7 seed per
// interval count, orientation and period-bound cell); its bytes count
// against the same budget, charged when the solve that grew it ends.

import (
	"container/list"
	"sync"

	"relpipe"
)

// tableBudget bounds the bytes of tables and seed memos the tier
// retains. The tables of one §8.2 heterogeneous instance of 100 tasks
// on 30 processors take about 56 KB (Heur-P's 101×31 cells of a float64
// and an int), and a seed-memo cell of it about 250 bytes, so the
// budget keeps about 300 such instances with a few dozen cells per
// seed, or the tables of one 2000-task chain on 500 processors. An
// instance whose tables alone exceed it is served but not retained.
const tableBudget = 16 << 20

// tableTier is a byte-budgeted LRU of heuristic tables keyed by
// instance route, with one single-flight build per route. Every Server
// has one.
type tableTier struct {
	metrics *Metrics
	budget  int64

	mu      sync.Mutex
	entries map[string]*list.Element // route → element holding a *tierEntry
	lru     *list.List               // front = most recently used
	bytes   int64                    // footprint of the retained entries
}

// tierEntry is one route's tables: built once, by the first solve that
// asks, while later askers wait on once.
type tierEntry struct {
	route  string
	once   sync.Once
	tables *relpipe.HeuristicTables
	bytes  int64 // counted in tableTier.bytes; 0 until built and retained
}

func newTableTier(m *Metrics, budget int64) *tableTier {
	return &tableTier{metrics: m, budget: budget, entries: make(map[string]*list.Element), lru: list.New()}
}

// provider returns the relpipe.Options.Tables hook of a request on
// route; a request without a route gets nil, so its search builds its
// own tables. Only a solve that actually seeds a heuristic search calls
// the hook, so exact and DP requests never create an entry.
func (t *tableTier) provider(route string) func(relpipe.Instance) *relpipe.HeuristicTables {
	if route == "" {
		return nil
	}
	return func(in relpipe.Instance) *relpipe.HeuristicTables { return t.get(route, in) }
}

// get returns the tables of in, building them on the route's first use.
// It declines (nil) when in is not the route's instance: a solve may
// re-optimize a *different* instance than the one it was keyed under
// (the adapt policies re-map degraded platforms mid-solve), and those
// must not receive this route's tables. Declining just means the search
// builds its own.
func (t *tableTier) get(route string, in relpipe.Instance) *relpipe.HeuristicTables {
	if in.Canonical() != route {
		return nil
	}
	t.mu.Lock()
	var e *tierEntry
	if el, ok := t.entries[route]; ok {
		t.lru.MoveToFront(el)
		e = el.Value.(*tierEntry)
		t.metrics.BatchCoalesce()
	} else {
		e = &tierEntry{route: route}
		t.entries[route] = t.lru.PushFront(e)
	}
	t.mu.Unlock()
	e.once.Do(func() {
		e.tables = relpipe.BuildHeuristicTables(in)
		t.metrics.TableBuilt()
		t.retain(e, e.tables.Bytes())
	})
	return e.tables
}

// retain charges a freshly built entry's footprint to the budget and
// evicts least recently used entries until the tier fits. An entry
// evicted while it was building is not charged: it is no longer held.
func (t *tableTier) retain(e *tierEntry, bytes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.entries[e.route]
	if !ok || el.Value.(*tierEntry) != e {
		return
	}
	if bytes > t.budget {
		t.remove(el)
		return
	}
	e.bytes = bytes
	t.bytes += bytes
	for t.bytes > t.budget {
		t.remove(t.lru.Back())
	}
}

// settle charges the growth of route's seed memo since its last charge,
// once a solve that may have grown it has ended, and evicts least
// recently used entries until the tier fits its budget again — the
// route's own entry when it alone no longer fits. Between a solve's
// table lookup and its settle, the tier holds at most the cells that
// in-flight solves add.
func (t *tableTier) settle(route string) {
	if route == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.entries[route]
	if !ok {
		return
	}
	e := el.Value.(*tierEntry)
	if e.bytes == 0 {
		return // still building: retain charges it
	}
	grown := e.tables.Bytes() - e.bytes
	if grown <= 0 {
		return
	}
	if e.bytes+grown > t.budget {
		t.remove(el)
		return
	}
	e.bytes += grown
	t.bytes += grown
	for t.bytes > t.budget {
		t.remove(t.lru.Back())
	}
}

// remove drops one entry from the tier; t.mu must be held. Solves
// already holding its tables keep using them.
func (t *tableTier) remove(el *list.Element) {
	e := el.Value.(*tierEntry)
	t.lru.Remove(el)
	delete(t.entries, e.route)
	t.bytes -= e.bytes
}
