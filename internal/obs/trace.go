package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one completed, named slice of work inside a trace. Spans form
// a tree through ParentID; the root span has an empty ParentID.
type Span struct {
	TraceID  string            `json:"traceId"`
	SpanID   string            `json:"spanId"`
	ParentID string            `json:"parentId,omitempty"`
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	End      time.Time         `json:"end"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// DurationSeconds returns the span's wall-clock length.
func (s Span) DurationSeconds() float64 { return s.End.Sub(s.Start).Seconds() }

// Trace is one completed request trace: the root span's identity plus
// every span recorded before the root ended (spans are in completion
// order; the root span is last).
type Trace struct {
	TraceID string    `json:"traceId"`
	Root    string    `json:"root"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Spans   []Span    `json:"spans"`
}

// Recorder is a bounded in-memory store of completed traces (a ring:
// when full, recording a new trace evicts the oldest). The zero value
// is unusable; build with NewRecorder. A nil *Recorder is safe
// everywhere and records nothing.
type Recorder struct {
	mu       sync.Mutex
	capacity int
	buf      []Trace
	next     int    // ring write position once len(buf) == capacity
	recorded uint64 // total traces ever recorded
}

// NewRecorder returns a recorder keeping the most recent capacity
// traces (capacity < 1 defaults to 256).
func NewRecorder(capacity int) *Recorder {
	if capacity < 1 {
		capacity = 256
	}
	return &Recorder{capacity: capacity}
}

func (r *Recorder) add(t Trace) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, t)
	} else {
		r.buf[r.next] = t
		r.next = (r.next + 1) % r.capacity
	}
	r.recorded++
	r.mu.Unlock()
}

// Traces returns the stored traces, newest first.
func (r *Recorder) Traces() []Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Trace, 0, len(r.buf))
	// The ring holds the oldest trace at next (once wrapped) and the
	// newest just before it; walk backwards from the newest.
	for i := len(r.buf) - 1; i >= 0; i-- {
		out = append(out, r.buf[(r.next+i)%len(r.buf)])
	}
	return out
}

// Find returns the stored trace with the given ID.
func (r *Recorder) Find(traceID string) (Trace, bool) {
	for _, t := range r.Traces() {
		if t.TraceID == traceID {
			return t, true
		}
	}
	return Trace{}, false
}

// Stats returns how many traces are stored now and how many were ever
// recorded (the difference is the evicted count).
func (r *Recorder) Stats() (stored int, recorded uint64) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf), r.recorded
}

// activeTrace collects the spans of one in-flight trace. It is shared
// across goroutines (pool workers record spans into the requesting
// trace), so all mutation is under mu. When the root span ends the
// trace flushes to the recorder; spans ending after that are dropped —
// a detached solve that outlives its request keeps running, but its
// late spans no longer have a trace to land in.
type activeTrace struct {
	rec     *Recorder
	traceID string
	// lastSpan numbers the trace's spans: span ids only need to be
	// unique within their trace (parent links never leave it), so a
	// counter replaces an entropy read per span, and a fixed trace gets
	// the same ids in the same order every time.
	lastSpan atomic.Uint64

	mu      sync.Mutex
	spans   []Span
	flushed bool
}

// newSpanID returns the trace's next span id, the counter rendered as
// 16 hex digits.
func (at *activeTrace) newSpanID() string {
	const digits = "0123456789abcdef"
	var b [16]byte
	n := at.lastSpan.Add(1)
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[n&15]
		n >>= 4
	}
	return string(b[:])
}

func (at *activeTrace) addSpan(sp Span) {
	at.mu.Lock()
	if !at.flushed {
		at.spans = append(at.spans, sp)
	}
	at.mu.Unlock()
}

func (at *activeTrace) flush(root Span) {
	at.mu.Lock()
	if at.flushed {
		at.mu.Unlock()
		return
	}
	at.flushed = true
	spans := append(at.spans, root)
	at.spans = nil
	at.mu.Unlock()
	at.rec.add(Trace{
		TraceID: at.traceID, Root: root.Name,
		Start: root.Start, End: root.End, Spans: spans,
	})
}

// SpanHandle is an open span. Handles are not safe for concurrent use
// (each goroutine opens its own spans); a nil handle is safe and inert,
// so callers never need to check whether tracing is active.
type SpanHandle struct {
	at   *activeTrace
	span Span
	root bool
}

// SetAttr attaches a key/value annotation (call before End).
func (h *SpanHandle) SetAttr(k, v string) {
	if h == nil {
		return
	}
	if h.span.Attrs == nil {
		h.span.Attrs = make(map[string]string)
	}
	h.span.Attrs[k] = v
}

// End completes the span. Ending the root span flushes the whole trace
// to the recorder. End is idempotent.
func (h *SpanHandle) End() {
	if h == nil || !h.span.End.IsZero() {
		return
	}
	h.span.End = time.Now()
	if h.root {
		h.at.flush(h.span)
	} else {
		h.at.addSpan(h.span)
	}
}

// scope is the one observation context value: the active trace and
// the current span within it (at nil outside a trace), and the stage
// observer (nil when none is installed). Every span and trace opened
// under a scope inherits its observer, so a root installs the observer
// once and everything below it, detached solves included, sees it.
type scope struct {
	at       *activeTrace
	spanID   string
	observer StageObserver
}

type scopeKey struct{}

func scopeFrom(ctx context.Context) scope {
	if ctx == nil {
		return scope{}
	}
	sc, _ := ctx.Value(scopeKey{}).(scope)
	return sc
}

// active reports whether the scope records anything.
func (sc scope) active() bool { return sc.at != nil || sc.observer != nil }

func withScope(ctx context.Context, sc scope) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, scopeKey{}, sc)
}

// StartTrace opens a new trace with a fresh ID rooted at a span called
// name, returning the derived context (carrying the root as current
// span) and the root handle. A nil recorder returns ctx unchanged and a
// nil handle, and mints no ID: nothing would record it.
func (r *Recorder) StartTrace(ctx context.Context, name string) (context.Context, *SpanHandle) {
	if r == nil {
		return ctx, nil
	}
	return r.StartTraceID(ctx, NewTraceID(), name)
}

// StartTraceID is StartTrace with a caller-chosen trace ID — the async
// job engine allocates the ID at submit time (so the job status can
// carry it) and starts the trace when the job actually runs.
func (r *Recorder) StartTraceID(ctx context.Context, traceID, name string) (context.Context, *SpanHandle) {
	if r == nil {
		return ctx, nil
	}
	at := &activeTrace{rec: r, traceID: traceID}
	h := &SpanHandle{
		at:   at,
		span: Span{TraceID: traceID, SpanID: at.newSpanID(), Name: name, Start: time.Now()},
		root: true,
	}
	sc := scopeFrom(ctx)
	sc.at, sc.spanID = at, h.span.SpanID
	return withScope(ctx, sc), h
}

// StartSpan opens a child of the current span. Without a trace in ctx
// it returns ctx unchanged and a nil (inert) handle.
func StartSpan(ctx context.Context, name string) (context.Context, *SpanHandle) {
	sc := scopeFrom(ctx)
	if sc.at == nil {
		return ctx, nil
	}
	h := &SpanHandle{
		at: sc.at,
		span: Span{
			TraceID: sc.at.traceID, SpanID: sc.at.newSpanID(), ParentID: sc.spanID,
			Name: name, Start: time.Now(),
		},
	}
	sc.spanID = h.span.SpanID
	return withScope(ctx, sc), h
}

// RecordSpan records an already-completed child of the current span —
// for work measured with explicit timestamps, like the queue wait
// between submitting to a worker pool and a worker picking the task up.
// Without a trace in ctx it is a no-op.
func RecordSpan(ctx context.Context, name string, start, end time.Time, attrs map[string]string) {
	recordSpan(scopeFrom(ctx), name, start, end, attrs)
}

func recordSpan(sc scope, name string, start, end time.Time, attrs map[string]string) {
	if sc.at == nil {
		return
	}
	sc.at.addSpan(Span{
		TraceID: sc.at.traceID, SpanID: sc.at.newSpanID(), ParentID: sc.spanID,
		Name: name, Start: start, End: end, Attrs: attrs,
	})
}

// TraceIDFrom returns the current trace's ID, or "" when ctx carries no
// trace.
func TraceIDFrom(ctx context.Context) string {
	if at := scopeFrom(ctx).at; at != nil {
		return at.traceID
	}
	return ""
}

// Detach returns a context that carries ctx's observation scope — its
// trace, current span and stage observer — but none of its deadline,
// cancellation or other values. This is how a detached execution — a
// solve running apart from any one request so a departing client
// cannot cancel work that dedup followers share — keeps recording
// spans into the originating request's trace and reporting stages to
// its observer.
func Detach(ctx context.Context) context.Context {
	sc := scopeFrom(ctx)
	if !sc.active() {
		return context.Background()
	}
	return withScope(context.Background(), sc)
}

// Untraced returns a context that keeps ctx's stage observer but not
// its trace: stages reported under it reach the observer, and so the
// metrics, but record no span. Work that reports stages once per item
// of a loop the request sizes (a remap search per crash of every
// replication) runs under it, so the request's trace stays bounded.
func Untraced(ctx context.Context) context.Context {
	sc := scopeFrom(ctx)
	if sc.at == nil {
		return ctx
	}
	sc.at, sc.spanID = nil, ""
	return withScope(ctx, sc)
}

// NewTraceID returns a fresh 128-bit hex trace ID. The random bytes and
// their hex digits live on the stack, so the returned string is its one
// allocation.
func NewTraceID() string {
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		panic(fmt.Sprintf("obs: id entropy unavailable: %v", err))
	}
	var id [2 * len(raw)]byte
	hex.Encode(id[:], raw[:])
	return string(id[:])
}
