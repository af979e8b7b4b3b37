package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceLifecycleNestedSpans(t *testing.T) {
	rec := NewRecorder(8)
	ctx, root := rec.StartTrace(context.Background(), "http.request")
	if TraceIDFrom(ctx) == "" {
		t.Fatal("no trace ID in context")
	}

	cctx, child := StartSpan(ctx, "solve")
	child.SetAttr("method", "dp")
	_, grand := StartSpan(cctx, "marshal")
	grand.End()
	child.End()

	if got, _ := rec.Stats(); got != 0 {
		t.Fatalf("trace flushed before root ended (stored=%d)", got)
	}
	root.SetAttr("code", "200")
	root.End()
	root.End() // idempotent

	traces := rec.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Root != "http.request" || tr.TraceID != TraceIDFrom(ctx) {
		t.Fatalf("bad trace identity: %+v", tr)
	}
	if len(tr.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(tr.Spans))
	}
	// Spans are in completion order; the root is last.
	byName := map[string]Span{}
	for _, sp := range tr.Spans {
		byName[sp.Name] = sp
		if sp.TraceID != tr.TraceID {
			t.Errorf("span %q has trace ID %q, want %q", sp.Name, sp.TraceID, tr.TraceID)
		}
		if sp.End.Before(sp.Start) {
			t.Errorf("span %q ends before it starts", sp.Name)
		}
	}
	rootSpan := tr.Spans[len(tr.Spans)-1]
	if rootSpan.Name != "http.request" || rootSpan.ParentID != "" {
		t.Fatalf("last span is not the root: %+v", rootSpan)
	}
	if rootSpan.Attrs["code"] != "200" {
		t.Errorf("root attrs = %v", rootSpan.Attrs)
	}
	if byName["solve"].ParentID != rootSpan.SpanID {
		t.Errorf("solve parent = %q, want root %q", byName["solve"].ParentID, rootSpan.SpanID)
	}
	if byName["marshal"].ParentID != byName["solve"].SpanID {
		t.Errorf("marshal parent = %q, want solve %q", byName["marshal"].ParentID, byName["solve"].SpanID)
	}
	if byName["solve"].Attrs["method"] != "dp" {
		t.Errorf("solve attrs = %v", byName["solve"].Attrs)
	}

	if got, ok := rec.Find(tr.TraceID); !ok || got.TraceID != tr.TraceID {
		t.Errorf("Find(%q) = %v, %v", tr.TraceID, got, ok)
	}
	if _, ok := rec.Find("nope"); ok {
		t.Error("Find of unknown ID succeeded")
	}
}

// TestTraceAcrossGoroutines models the pool handoff: the span-carrying
// context crosses into worker goroutines (through Detach) and their
// spans land in the originating trace.
func TestTraceAcrossGoroutines(t *testing.T) {
	rec := NewRecorder(8)
	ctx, root := rec.StartTrace(context.Background(), "req")

	detached := Detach(ctx)
	if TraceIDFrom(detached) != TraceIDFrom(ctx) {
		t.Fatal("Detach did not carry the trace ID")
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sp := StartSpan(detached, fmt.Sprintf("worker-%d", i))
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()

	tr, ok := rec.Find(TraceIDFrom(ctx))
	if !ok {
		t.Fatal("trace not recorded")
	}
	if len(tr.Spans) != 5 { // 4 workers + root
		t.Fatalf("got %d spans, want 5", len(tr.Spans))
	}
}

func TestRecordSpanAndLateSpansDropped(t *testing.T) {
	rec := NewRecorder(8)
	ctx, root := rec.StartTrace(context.Background(), "req")
	t0 := time.Now().Add(-10 * time.Millisecond)
	RecordSpan(ctx, "queue.wait", t0, time.Now(), map[string]string{"depth": "3"})
	root.End()

	// Spans completing after the root flushed must not corrupt the
	// recorded trace (the detached-solve-outlives-request case).
	_, late := StartSpan(ctx, "late")
	late.End()
	RecordSpan(ctx, "also-late", t0, time.Now(), nil)

	tr, _ := rec.Find(TraceIDFrom(ctx))
	if len(tr.Spans) != 2 {
		t.Fatalf("got %d spans, want 2 (queue.wait + root)", len(tr.Spans))
	}
	if tr.Spans[0].Name != "queue.wait" || tr.Spans[0].Attrs["depth"] != "3" {
		t.Errorf("queue span = %+v", tr.Spans[0])
	}
}

func TestRecorderBoundEviction(t *testing.T) {
	rec := NewRecorder(3)
	for i := 0; i < 5; i++ {
		_, root := rec.StartTraceID(context.Background(), fmt.Sprintf("id-%d", i), "r")
		root.End()
	}
	stored, recorded := rec.Stats()
	if stored != 3 || recorded != 5 {
		t.Fatalf("stats = (%d, %d), want (3, 5)", stored, recorded)
	}
	traces := rec.Traces()
	if len(traces) != 3 {
		t.Fatalf("got %d traces, want 3", len(traces))
	}
	for i, want := range []string{"id-4", "id-3", "id-2"} { // newest first
		if traces[i].TraceID != want {
			t.Errorf("traces[%d] = %q, want %q", i, traces[i].TraceID, want)
		}
	}
	if _, ok := rec.Find("id-0"); ok {
		t.Error("evicted trace still findable")
	}
}

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	ctx, root := rec.StartTrace(context.Background(), "r")
	root.SetAttr("k", "v")
	root.End()
	if TraceIDFrom(ctx) != "" {
		t.Error("nil recorder produced a trace")
	}
	_, sp := StartSpan(ctx, "child")
	sp.End()
	RecordSpan(ctx, "x", time.Now(), time.Now(), nil)
	Stage(ctx, "stage", time.Now(), 1, nil)
	Stage(nil, "stage", time.Now(), 1, nil) //nolint:staticcheck // nil ctx is part of the contract
	if n := rec.Traces(); n != nil {
		t.Errorf("nil recorder Traces() = %v", n)
	}
}

func TestStageObserverAndSpan(t *testing.T) {
	rec := NewRecorder(4)
	ctx, root := rec.StartTrace(context.Background(), "req")

	var mu sync.Mutex
	var events []StageEvent
	ctx = WithStageObserver(ctx, func(e StageEvent) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	})

	start := time.Now().Add(-5 * time.Millisecond)
	Stage(ctx, "search.anneal", start, 128, map[string]string{"accepted": "40"})
	root.End()

	mu.Lock()
	defer mu.Unlock()
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	e := events[0]
	if e.Name != "search.anneal" || e.Units != 128 || e.Attrs["accepted"] != "40" {
		t.Errorf("event = %+v", e)
	}
	if e.Duration < 5*time.Millisecond {
		t.Errorf("duration = %v, want >= 5ms", e.Duration)
	}
	tr, _ := rec.Find(TraceIDFrom(ctx))
	if len(tr.Spans) != 2 || tr.Spans[0].Name != "search.anneal" {
		t.Errorf("stage span not recorded: %+v", tr.Spans)
	}
}

func TestUntracedKeepsObserverDropsSpans(t *testing.T) {
	rec := NewRecorder(4)
	var mu sync.Mutex
	var seen []string
	ctx := WithStageObserver(context.Background(), func(e StageEvent) {
		mu.Lock()
		seen = append(seen, e.Name)
		mu.Unlock()
	})
	ctx, root := rec.StartTrace(ctx, "req")
	Stage(Untraced(ctx), "search.anneal", time.Now(), 1, nil)
	Stage(ctx, "adapt.batch", time.Now(), 1, nil)
	root.End()
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 || seen[0] != "search.anneal" || seen[1] != "adapt.batch" {
		t.Errorf("observer saw %v, want [search.anneal adapt.batch]", seen)
	}
	tr, _ := rec.Find(TraceIDFrom(ctx))
	if len(tr.Spans) != 2 || tr.Spans[0].Name != "adapt.batch" {
		t.Errorf("trace spans %+v, want adapt.batch and the root only", tr.Spans)
	}
	if TraceIDFrom(Untraced(ctx)) != "" {
		t.Error("Untraced context still carries the trace")
	}
	if bg := context.Background(); Untraced(bg) != bg {
		t.Error("Untraced of an untraced context should return it unchanged")
	}
}

func TestWithStageObserverNilFn(t *testing.T) {
	ctx := context.Background()
	if got := WithStageObserver(ctx, nil); got != ctx {
		t.Error("nil observer should return ctx unchanged")
	}
}

// TestScopeInheritsObserver pins the single observation scope: a trace
// opened under an observer, and the spans below it, report stages to
// that observer; installing the observer under a trace keeps the
// trace; and Detach carries both the trace and the observer onto a
// context that cancelling the original does not reach.
func TestScopeInheritsObserver(t *testing.T) {
	rec := NewRecorder(8)
	var mu sync.Mutex
	var seen []string
	observe := func(e StageEvent) {
		mu.Lock()
		seen = append(seen, e.Name)
		mu.Unlock()
	}
	parent, cancel := context.WithCancel(WithStageObserver(context.Background(), observe))
	ctx, root := rec.StartTrace(parent, "root")
	sctx, sp := StartSpan(ctx, "solve")
	Stage(sctx, "in-span", time.Now(), 0, nil)

	detached := Detach(sctx)
	cancel()
	if detached.Err() != nil {
		t.Fatal("Detach kept the original's cancellation")
	}
	if !Active(detached) || TraceIDFrom(detached) != TraceIDFrom(ctx) {
		t.Fatal("Detach did not carry the trace")
	}
	Stage(detached, "detached", time.Now(), 0, nil)
	sp.End()

	// Observer installed after the trace: the trace stays.
	octx := WithStageObserver(ctx, observe)
	if TraceIDFrom(octx) != TraceIDFrom(ctx) {
		t.Fatal("WithStageObserver dropped the trace")
	}
	Stage(octx, "late", time.Now(), 0, nil)
	root.End()

	if got := strings.Join(seen, " "); got != "in-span detached late" {
		t.Fatalf("observer saw %q, want in-span detached late", got)
	}
	tr, _ := rec.Find(TraceIDFrom(ctx))
	parents := map[string]string{}
	for _, s := range tr.Spans {
		parents[s.Name] = s.ParentID
	}
	if parents["detached"] != parents["in-span"] || parents["in-span"] == "" {
		t.Fatalf("detached stage span parents %v, want both under the solve span", parents)
	}
	if Active(Detach(context.Background())) {
		t.Fatal("Detach of an unobserved context is active")
	}
}

// TestSpanIDsUniqueAndDeterministic pins the per-trace span counter:
// every span of a trace — the root, nested spans, recorded spans and
// spans recorded from other goroutines through Detach — gets a
// distinct 16-hex-digit id, and replaying the same sequential trace
// gives the same ids, names and parent links.
func TestSpanIDsUniqueAndDeterministic(t *testing.T) {
	rec := NewRecorder(8)
	sequential := func() []Span {
		ctx, root := rec.StartTrace(context.Background(), "root")
		cctx, child := StartSpan(ctx, "solve")
		RecordSpan(cctx, "queue.wait", time.Now(), time.Now(), nil)
		Stage(cctx, "search.seed", time.Now(), 1, nil)
		child.End()
		_, marshal := StartSpan(ctx, "marshal")
		marshal.End()
		root.End()
		tr, _ := rec.Find(TraceIDFrom(ctx))
		return tr.Spans
	}
	a, b := sequential(), sequential()
	if len(a) != 5 || len(a) != len(b) {
		t.Fatalf("got %d and %d spans, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i].SpanID != b[i].SpanID || a[i].ParentID != b[i].ParentID || a[i].Name != b[i].Name {
			t.Fatalf("span %d differs between replays: %+v vs %+v", i, a[i], b[i])
		}
	}

	ctx, root := rec.StartTrace(context.Background(), "root")
	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx := Detach(ctx)
			for i := 0; i < perWorker; i++ {
				sctx, sp := StartSpan(wctx, "work")
				RecordSpan(sctx, "step", time.Now(), time.Now(), nil)
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	tr, _ := rec.Find(TraceIDFrom(ctx))
	if want := 1 + 2*workers*perWorker; len(tr.Spans) != want {
		t.Fatalf("got %d spans, want %d", len(tr.Spans), want)
	}
	seen := map[string]bool{}
	for _, sp := range tr.Spans {
		if len(sp.SpanID) != 16 {
			t.Fatalf("span id %q is not 16 hex digits", sp.SpanID)
		}
		if seen[sp.SpanID] {
			t.Fatalf("span id %q repeats within the trace", sp.SpanID)
		}
		seen[sp.SpanID] = true
	}
}

// TestNewTraceIDAllocs pins the cost of a trace ID: 32 lowercase hex
// digits in one allocation, the string itself.
func TestNewTraceIDAllocs(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if len(a) != 32 || strings.Trim(a, "0123456789abcdef") != "" || a == b {
		t.Fatalf("trace IDs %q, %q: want two distinct 32-digit hex strings", a, b)
	}
	if raceEnabled {
		t.Skip("allocation count does not hold under -race")
	}
	if n := testing.AllocsPerRun(100, func() { _ = NewTraceID() }); n != 1 {
		t.Fatalf("NewTraceID allocs = %v, want 1", n)
	}
}

// TestNilRecorderMintsNoID: a nil recorder records nothing, so starting
// a trace on it must not mint (or allocate) an ID.
func TestNilRecorderMintsNoID(t *testing.T) {
	var rec *Recorder
	ctx := context.Background()
	n := testing.AllocsPerRun(100, func() {
		got, root := rec.StartTrace(ctx, "req")
		if got != ctx || root != nil {
			t.Fatal("nil recorder changed the context or opened a root span")
		}
	})
	if n != 0 {
		t.Fatalf("nil-recorder StartTrace allocs = %v, want 0", n)
	}
}
