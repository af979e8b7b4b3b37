package service

// Heuristic-table tier: every heuristic search over one instance seeds
// from the same §7 partition tables (Heur-P's Algorithm 4 table and
// Heur-L's cut ordering). They depend only on the chain and the
// platform, never on bounds, method or search knobs, so the tier keeps
// one heur.Tables value per instance route (Request.Route, the leading
// Instance.Canonical() segment of every cache key) across requests. The
// tier builds nothing itself: heur.Tables builds each partition table
// at most once, on the first candidate that needs it, so concurrent
// requests on one instance share one build and later ones build
// nothing. Sharing never changes an answer — responses stay
// byte-identical to a per-request build. Each Tables value also carries
// a seed memo that searches fill as they run (one §7 seed per interval
// count, orientation and period-bound cell). The tier charges all of an
// entry's growth, tables and memo alike, when a solve on its route ends
// (settle).

import (
	"container/list"
	"sync"

	"relpipe"
	"relpipe/internal/heur"
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
// instance route. Every Server has one.
type tableTier struct {
	metrics *Metrics
	budget  int64

	mu      sync.Mutex
	entries map[string]*list.Element // route → element holding a *tierEntry
	lru     *list.List               // front = most recently used
	bytes   int64                    // footprint charged to the retained entries
}

// tierEntry is one route's tables and the bytes charged for them so
// far.
type tierEntry struct {
	route  string
	tables *relpipe.HeuristicTables
	bytes  int64 // counted in tableTier.bytes
}

func newTableTier(m *Metrics, budget int64) *tableTier {
	return &tableTier{metrics: m, budget: budget, entries: make(map[string]*list.Element), lru: list.New()}
}

// provider returns the relpipe.Options.Tables hook of a request on
// route; a request without a route gets nil, so its search uses
// private tables. Only a solve that actually seeds a heuristic search
// calls the hook, so exact and DP requests never create an entry.
func (t *tableTier) provider(route string) func(relpipe.Instance) *relpipe.HeuristicTables {
	if route == "" {
		return nil
	}
	return func(in relpipe.Instance) *relpipe.HeuristicTables { return t.get(route, in) }
}

// get returns the tables of in, creating the route's entry on its first
// use; the tables build lazily inside heur.Tables. It declines (nil)
// when in is not the route's instance, so a solve can only ever be
// handed the tables of the instance its route names; declining just
// means the search uses private tables.
func (t *tableTier) get(route string, in relpipe.Instance) *relpipe.HeuristicTables {
	if in.Canonical() != route {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.entries[route]; ok {
		t.lru.MoveToFront(el)
		t.metrics.BatchCoalesce()
		return el.Value.(*tierEntry).tables
	}
	e := &tierEntry{route: route, tables: heur.NewTables(in.Chain, in.Platform)}
	t.entries[route] = t.lru.PushFront(e)
	t.metrics.TableBuilt()
	return e.tables
}

// settle charges the growth of route's tables since their last charge —
// the partition tables the first solve built and the seed-memo cells
// every solve added — once a solve that may have grown them has ended,
// and evicts least recently used entries until the tier fits its budget
// again: the route's own entry when it alone no longer fits. Between a
// solve's table lookup and its settle, the tier holds uncharged at most
// what in-flight solves build and add.
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
