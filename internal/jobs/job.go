package jobs

import (
	"context"
	"encoding/json"
	"sync"
	"time"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued means the job is admitted but no worker has picked it
	// up yet (it may be waiting for a worker-pool slot).
	StateQueued State = "queued"
	// StateRunning means a worker is executing the solve.
	StateRunning State = "running"
	// StateSucceeded means the job finished with a 200 result.
	StateSucceeded State = "succeeded"
	// StateFailed means the job finished with a non-200 result (error
	// document in Result).
	StateFailed State = "failed"
	// StateCancelled means the job was cancelled before producing a
	// result.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// Outcome is a job's materialized result: the HTTP status and response
// document the equivalent synchronous request would have produced.
type Outcome struct {
	Status int
	Body   []byte
}

// Runner executes one job. ctx is cancelled when the job is cancelled
// (or the engine's base context ends); ctl receives the queued→running
// transition and progress reports. The returned Outcome becomes the
// job's result verbatim.
type Runner func(ctx context.Context, ctl Control) Outcome

// Control is the job-side interface handed to a Runner.
type Control interface {
	// Running marks the queued→running transition (call it when a
	// worker actually starts the solve, not when the job is admitted).
	Running()
	// Progress records done units out of total. Reports are clamped to
	// a monotone maximum, so out-of-order delivery from parallel
	// workers never shows a subscriber regressing progress.
	Progress(done, total int64)
}

// Progress is a monotone completion snapshot.
type Progress struct {
	Done  int64 `json:"done"`
	Total int64 `json:"total"`
}

// Status is the wire snapshot of a job (also the SSE event payload; the
// root package re-exports it as relpipe.JobStatus). Result and HTTPStatus
// are set only once the job is terminal.
type Status struct {
	ID       string   `json:"id"`
	Kind     string   `json:"kind"`
	Client   string   `json:"client,omitempty"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`
	// HTTPStatus is the status code the equivalent synchronous request
	// would have answered with (200 for succeeded jobs).
	HTTPStatus int `json:"status,omitempty"`
	// Result is the response document (or error document) of the solve.
	Result json.RawMessage `json:"result,omitempty"`
	// Cached reports that the result came from the service result cache
	// without a new solve (the job completed instantly).
	Cached bool `json:"cached,omitempty"`
	// TraceID correlates the job with the trace its runner records
	// (queryable at /debug/traces); empty for instantly-completed
	// cache hits, which never execute.
	TraceID string `json:"traceId,omitempty"`
	// Node is the cluster node (base URL) the job runs on: the ring
	// owner of its ID, so in cluster mode any node answers for any job
	// with one Owner lookup and one hop. Empty on single-node servers.
	Node       string    `json:"node,omitempty"`
	CreatedAt  time.Time `json:"createdAt"`
	StartedAt  time.Time `json:"startedAt,omitzero"`
	FinishedAt time.Time `json:"finishedAt,omitzero"`
}

// Job is one tracked unit of async work. All exported access goes
// through methods; the zero value is not usable (Engine.Submit builds
// jobs).
type Job struct {
	id      string
	kind    string
	client  string
	traceID string
	node    string

	created time.Time
	cancel  context.CancelFunc
	now     func() time.Time

	mu        sync.Mutex
	state     State
	started   time.Time
	finished  time.Time
	outcome   Outcome
	cached    bool
	cancelled bool // Cancel was requested (classifies the terminal state)
	progress  Progress
	subs      map[chan struct{}]struct{}
	done      chan struct{}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Status returns a consistent snapshot of the job.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.id, Kind: j.kind, Client: j.client,
		State: j.state, Progress: j.progress,
		Cached: j.cached, TraceID: j.traceID, Node: j.node,
		CreatedAt: j.created, StartedAt: j.started, FinishedAt: j.finished,
	}
	if j.state.Terminal() {
		st.HTTPStatus = j.outcome.Status
		st.Result = j.outcome.Body
	}
	return st
}

// Running implements Control.
func (j *Job) Running() {
	j.mu.Lock()
	if j.state == StateQueued {
		j.state = StateRunning
		j.started = j.now()
	}
	j.notifyLocked()
	j.mu.Unlock()
}

// Progress implements Control: reports are clamped to the monotone
// maximum so interleaved parallel workers never regress the view.
func (j *Job) Progress(done, total int64) {
	j.mu.Lock()
	if total > j.progress.Total {
		j.progress.Total = total
	}
	if done > j.progress.Done {
		j.progress.Done = done
		j.notifyLocked()
	}
	j.mu.Unlock()
}

// Subscribe returns a coalescing notification channel: it receives (at
// most one pending) signal whenever the job's observable state changes.
// Pair with Unsubscribe.
func (j *Job) Subscribe() chan struct{} {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

// subscriberCount reports the open subscriptions and current state in
// one consistent read (the engine's Stats aggregation).
func (j *Job) subscriberCount() (int, State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.subs), j.state
}

// Unsubscribe detaches a Subscribe channel.
func (j *Job) Unsubscribe(ch chan struct{}) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// notifyLocked signals every subscriber without blocking (channels have
// capacity 1; a full channel already has a wake-up pending).
func (j *Job) notifyLocked() {
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// complete records the runner's outcome and resolves the terminal
// state: succeeded on 200; cancelled when a cancellation was requested
// and no 200 result was produced; failed otherwise.
func (j *Job) complete(out Outcome) {
	j.mu.Lock()
	switch {
	case out.Status == 200:
		j.state = StateSucceeded
	case j.cancelled:
		j.state = StateCancelled
	default:
		j.state = StateFailed
	}
	j.outcome = out
	j.finished = j.now()
	close(j.done)
	j.notifyLocked()
	j.mu.Unlock()
}

// requestCancel marks the cancellation request and cancels the job's
// context. It reports whether the job was still live.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.cancelled = true
	j.mu.Unlock()
	j.cancel()
	return true
}
