package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"relpipe/internal/clock"
)

// Errors returned by Submit; the service maps the cap errors to 429
// (with Retry-After) and ErrClosed to 503.
var (
	// ErrStoreFull means the job store is at capacity and every stored
	// job is still live (nothing terminal to evict).
	ErrStoreFull = errors.New("jobs: store full of live jobs")
	// ErrClientCap means the submitting client already has its maximum
	// number of live jobs.
	ErrClientCap = errors.New("jobs: per-client live job cap reached")
	// ErrClosed means the engine is shutting down.
	ErrClosed = errors.New("jobs: engine closed")
)

// Options configures an Engine. Zero values select the defaults noted
// on each field.
type Options struct {
	// MaxJobs bounds stored jobs of every state (default 1024). When
	// the store is full, terminal jobs are evicted oldest-finished
	// first to admit new work; if every stored job is live, Submit
	// fails with ErrStoreFull.
	MaxJobs int
	// MaxPerClient bounds one client's live (queued or running) jobs
	// (default 16). The empty client name is one shared bucket.
	MaxPerClient int
	// TTL is how long terminal jobs stay queryable before the janitor
	// collects them (default 10m). The janitor runs every min(TTL, 1m).
	TTL time.Duration

	// Clock is the engine's time source (default clock.Real()). Tests
	// inject a *clock.Fake so TTL collection — including the janitor's
	// own ticker — runs deterministically without sleeps.
	Clock clock.Clock
}

func (o Options) withDefaults() Options {
	if o.MaxJobs <= 0 {
		o.MaxJobs = 1024
	}
	if o.MaxPerClient <= 0 {
		o.MaxPerClient = 16
	}
	if o.TTL <= 0 {
		o.TTL = 10 * time.Minute
	}
	if o.Clock == nil {
		o.Clock = clock.Real()
	}
	return o
}

// Engine owns the job store and lifecycles. Create with NewEngine,
// Close on shutdown: Close stops admitting, waits for every live job to
// reach a terminal state (the drain contract of graceful shutdown) and
// stops the janitor.
type Engine struct {
	opts Options

	mu        sync.Mutex
	closed    bool
	node      string               // cluster identity stamped on new jobs' statuses
	owns      func(id string) bool // cluster ring test new ids must pass (nil: any id)
	jobs      map[string]*Job
	live      map[string]int // per-client live job counts
	submitted uint64         // jobs ever admitted
	evicted   uint64         // jobs ever removed from the store (capacity or TTL)

	wg       sync.WaitGroup // one unit per running Runner
	janitorC chan struct{}  // closed to stop the janitor
}

// NewEngine builds a ready engine and starts its janitor.
func NewEngine(opts Options) *Engine {
	e := &Engine{
		opts:     opts.withDefaults(),
		jobs:     make(map[string]*Job),
		live:     make(map[string]int),
		janitorC: make(chan struct{}),
	}
	e.wg.Add(1)
	// The ticker is created here, not inside the goroutine, so a fake
	// clock advanced right after NewEngine returns is guaranteed to
	// reach it.
	go e.janitor(e.opts.Clock.NewTicker(min(e.opts.TTL, time.Minute)))
	return e
}

// janitor periodically evicts terminal jobs older than TTL.
func (e *Engine) janitor(t clock.Ticker) {
	defer e.wg.Done()
	defer t.Stop()
	for {
		select {
		case <-e.janitorC:
			return
		case <-t.C():
			e.collect(e.opts.Clock.Now())
		}
	}
}

// collect removes terminal jobs whose TTL expired at time now.
func (e *Engine) collect(now time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for id, j := range e.jobs {
		st := j.Status()
		if st.State.Terminal() && now.Sub(st.FinishedAt) > e.opts.TTL {
			delete(e.jobs, id)
			e.evicted++
		}
	}
}

// newID returns a fresh 128-bit hex job id, drawing again until the
// ownership predicate set by SetNode (if any) accepts it. The predicate
// is caller code, so it runs without mu held.
func (e *Engine) newID() string {
	e.mu.Lock()
	owns := e.owns
	e.mu.Unlock()
	for {
		var b [16]byte
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("jobs: id entropy unavailable: %v", err))
		}
		if id := hex.EncodeToString(b[:]); owns == nil || owns(id) {
			return id
		}
	}
}

// admitLocked enforces the store and client caps, evicting expired or
// oldest-finished terminal jobs when the store is full. Caller holds mu.
func (e *Engine) admitLocked(client string) error {
	if e.closed {
		return ErrClosed
	}
	if e.live[client] >= e.opts.MaxPerClient {
		return fmt.Errorf("%w (%d)", ErrClientCap, e.opts.MaxPerClient)
	}
	if len(e.jobs) < e.opts.MaxJobs {
		return nil
	}
	// Evict the terminal job that finished longest ago.
	var victim string
	var oldest time.Time
	for id, j := range e.jobs {
		st := j.Status()
		if !st.State.Terminal() {
			continue
		}
		if victim == "" || st.FinishedAt.Before(oldest) {
			victim, oldest = id, st.FinishedAt
		}
	}
	if victim == "" {
		return fmt.Errorf("%w (%d)", ErrStoreFull, e.opts.MaxJobs)
	}
	delete(e.jobs, victim)
	e.evicted++
	return nil
}

// SetNode stamps the cluster identity (this node's base URL) onto every
// subsequently created job's status, and makes the engine mint only ids
// that owns accepts — the ids the cluster ring assigns to this node, so
// any node finds a job's home with one ring lookup of its id. The
// service calls it when joining a cluster; single-node engines never
// do, so Node stays empty and any id is minted.
func (e *Engine) SetNode(node string, owns func(id string) bool) {
	e.mu.Lock()
	e.node, e.owns = node, owns
	e.mu.Unlock()
}

// newJobLocked registers a job shell. Caller holds mu and has passed
// admitLocked.
func (e *Engine) newJobLocked(id, kind, client, traceID string, cancel context.CancelFunc) *Job {
	j := &Job{
		id: id, kind: kind, client: client, traceID: traceID, node: e.node,
		created: e.opts.Clock.Now(), now: e.opts.Clock.Now,
		cancel: cancel,
		state:  StateQueued,
		subs:   make(map[chan struct{}]struct{}),
		done:   make(chan struct{}),
	}
	e.jobs[j.id] = j
	e.submitted++
	return j
}

// Submit admits a job and starts run on its own goroutine. ctx is the
// engine-wide base context for the job (usually context.Background());
// the job's own cancellation is layered on top of it. traceID is
// carried in the job's status (empty for none), so clients can
// correlate an async job with the trace its runner records (the service
// allocates the ID at submit time and starts the trace when the runner
// executes).
func (e *Engine) Submit(ctx context.Context, kind, client, traceID string, run Runner) (*Job, error) {
	id := e.newID()
	jobCtx, cancel := context.WithCancel(ctx)
	e.mu.Lock()
	if err := e.admitLocked(client); err != nil {
		e.mu.Unlock()
		cancel()
		return nil, err
	}
	j := e.newJobLocked(id, kind, client, traceID, cancel)
	e.live[client]++
	e.wg.Add(1)
	e.mu.Unlock()

	go func() {
		defer e.wg.Done()
		defer cancel()
		out := runSafely(jobCtx, j, run)
		j.complete(out)
		e.mu.Lock()
		if e.live[client]--; e.live[client] <= 0 {
			delete(e.live, client)
		}
		e.mu.Unlock()
	}()
	return j, nil
}

// SubmitCompleted registers a job that is already terminal — the
// cache-dedup path: an async job whose key is already in the result
// cache completes instantly without touching a worker.
func (e *Engine) SubmitCompleted(kind, client string, out Outcome) (*Job, error) {
	id := e.newID()
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.admitLocked(client); err != nil {
		return nil, err
	}
	j := e.newJobLocked(id, kind, client, "", func() {})
	j.cached = true
	j.started = j.created
	j.progress = Progress{Done: 1, Total: 1}
	j.complete(out)
	return j, nil
}

// Stats is the engine's lifecycle snapshot for monitoring: stored jobs
// by state, open Subscribe channels across every job, and the
// monotonic admitted/evicted totals.
type Stats struct {
	Queued, Running, Terminal int
	Subscribers               int
	Submitted, Evicted        uint64
}

// Stats counts the stored jobs by lifecycle state.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	js := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		js = append(js, j)
	}
	s := Stats{Submitted: e.submitted, Evicted: e.evicted}
	e.mu.Unlock()
	for _, j := range js {
		subs, state := j.subscriberCount()
		s.Subscribers += subs
		switch state {
		case StateQueued:
			s.Queued++
		case StateRunning:
			s.Running++
		default:
			s.Terminal++
		}
	}
	return s
}

// runSafely contains a panicking Runner so one buggy solve cannot take
// the engine down; the job fails with a 500-style outcome.
func runSafely(ctx context.Context, j *Job, run Runner) (out Outcome) {
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{Status: 500, Body: fmt.Appendf(nil, `{"error":"job panicked: %v"}`, r)}
		}
	}()
	return run(ctx, j)
}

// Get returns the job with the given id.
func (e *Engine) Get(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a live job. It returns the job (for
// its current status), whether it exists, and whether the request
// actually cancelled anything (false for already-terminal jobs). The
// state flips to cancelled asynchronously once the solver observes its
// context — solvers poll cancellation between shards/iterations.
func (e *Engine) Cancel(id string) (j *Job, ok, cancelled bool) {
	j, ok = e.Get(id)
	if !ok {
		return nil, false, false
	}
	return j, true, j.requestCancel()
}

// Snapshot returns the status of every stored job, newest first — the
// shutdown dump and the list endpoint. client filters when non-empty.
func (e *Engine) Snapshot(client string) []Status {
	e.mu.Lock()
	js := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		js = append(js, j)
	}
	e.mu.Unlock()
	out := make([]Status, 0, len(js))
	for _, j := range js {
		st := j.Status()
		if client != "" && st.Client != client {
			continue
		}
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool {
		if !out[a].CreatedAt.Equal(out[b].CreatedAt) {
			return out[a].CreatedAt.After(out[b].CreatedAt)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Close stops admitting new jobs, waits for every live job to reach a
// terminal state (their results stay queryable until the owner process
// exits), and stops the janitor. The worker pool executing the jobs
// must still be alive when Close is called — the service closes the
// engine before the pool for exactly this reason.
func (e *Engine) Close() { e.CloseWithin(0) }

// CloseWithin is Close with a drain budget: jobs still live after d are
// cancelled (their contexts fire; solvers abort at the next
// cancellation poll and the jobs land as cancelled, so a shutdown
// status dump records only terminal states). d <= 0 waits without
// bound. CloseWithin still waits for the cancelled runners to return —
// the bound is as tight as the solvers' cancellation polling, which
// every long-running engine does between shards and iterations.
func (e *Engine) CloseWithin(d time.Duration) {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.janitorC)
	}
	e.mu.Unlock()
	if d > 0 {
		drained := make(chan struct{})
		go func() { e.wg.Wait(); close(drained) }()
		select {
		case <-drained:
			return
		case <-time.After(d):
			e.cancelLive()
		}
	}
	e.wg.Wait()
}

// cancelLive requests cancellation of every non-terminal job.
func (e *Engine) cancelLive() {
	e.mu.Lock()
	js := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		js = append(js, j)
	}
	e.mu.Unlock()
	for _, j := range js {
		j.requestCancel()
	}
}
