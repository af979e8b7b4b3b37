package jobs

import (
	"context"
	"errors"
	"testing"
	"time"

	"relpipe/internal/clock"
)

func newTestEngine(t *testing.T, opts Options) (*Engine, *clock.Fake) {
	t.Helper()
	clk := clock.NewFake(time.Unix(1000, 0))
	opts.Clock = clk
	e := NewEngine(opts)
	t.Cleanup(e.Close)
	return e, clk
}

// instant returns a Runner that completes immediately with status.
func instant(status int) Runner {
	return func(ctx context.Context, ctl Control) Outcome {
		ctl.Running()
		return Outcome{Status: status, Body: []byte(`{}`)}
	}
}

// gated returns a Runner that blocks until release is closed.
func gated(release <-chan struct{}) Runner {
	return func(ctx context.Context, ctl Control) Outcome {
		ctl.Running()
		select {
		case <-release:
			return Outcome{Status: 200, Body: []byte(`{}`)}
		case <-ctx.Done():
			return Outcome{Status: 499, Body: []byte(`{"error":"cancelled"}`)}
		}
	}
}

func waitTerminal(t *testing.T, j *Job) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never terminal", j.ID())
	}
	return j.Status()
}

func TestLifecycleStates(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	j, err := e.Submit(context.Background(), "k", "c", "", instant(200))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.State != StateSucceeded || st.HTTPStatus != 200 {
		t.Fatalf("status = %+v", st)
	}
	j, err = e.Submit(context.Background(), "k", "c", "", instant(422))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, j); st.State != StateFailed || st.HTTPStatus != 422 {
		t.Fatalf("status = %+v", st)
	}
}

func TestCancelFlipsStateAndUnblocksRunner(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	release := make(chan struct{})
	defer close(release)
	j, err := e.Submit(context.Background(), "k", "c", "", gated(release))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, cancelled := e.Cancel(j.ID()); !ok || !cancelled {
		t.Fatalf("cancel = %v %v", ok, cancelled)
	}
	if st := waitTerminal(t, j); st.State != StateCancelled {
		t.Fatalf("state = %s", st.State)
	}
	// Cancelling a terminal job is a no-op.
	if _, ok, cancelled := e.Cancel(j.ID()); !ok || cancelled {
		t.Fatalf("terminal cancel = %v %v", ok, cancelled)
	}
}

func TestPerClientCap(t *testing.T) {
	e, _ := newTestEngine(t, Options{MaxPerClient: 2})
	release := make(chan struct{})
	defer close(release)
	for i := 0; i < 2; i++ {
		if _, err := e.Submit(context.Background(), "k", "alice", "", gated(release)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Submit(context.Background(), "k", "alice", "", gated(release)); !errors.Is(err, ErrClientCap) {
		t.Fatalf("err = %v, want ErrClientCap", err)
	}
	// Another client is unaffected.
	if _, err := e.Submit(context.Background(), "k", "bob", "", gated(release)); err != nil {
		t.Fatal(err)
	}
}

func TestStoreCapEvictsTerminalOldestFirst(t *testing.T) {
	e, clk := newTestEngine(t, Options{MaxJobs: 2})
	j1, err := e.Submit(context.Background(), "k", "c", "", instant(200))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j1)
	clk.Advance(time.Second)
	j2, err := e.Submit(context.Background(), "k", "c", "", instant(200))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j2)
	clk.Advance(time.Second)
	// Store full (2 terminal jobs): the next submit evicts j1 (oldest
	// finished), keeps j2.
	j3, err := e.Submit(context.Background(), "k", "c", "", instant(200))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j3)
	if _, ok := e.Get(j1.ID()); ok {
		t.Fatal("oldest terminal job not evicted")
	}
	if _, ok := e.Get(j2.ID()); !ok {
		t.Fatal("newer terminal job evicted")
	}
}

func TestStoreFullOfLiveJobsRejects(t *testing.T) {
	e, _ := newTestEngine(t, Options{MaxJobs: 2, MaxPerClient: 10})
	release := make(chan struct{})
	defer close(release)
	for i := 0; i < 2; i++ {
		if _, err := e.Submit(context.Background(), "k", "c", "", gated(release)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Submit(context.Background(), "k", "c", "", gated(release)); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("err = %v, want ErrStoreFull", err)
	}
}

func TestTTLCollect(t *testing.T) {
	e, clk := newTestEngine(t, Options{TTL: time.Minute})
	j, err := e.Submit(context.Background(), "k", "c", "", instant(200))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	clk.Advance(30 * time.Second)
	e.collect(clk.Now())
	if _, ok := e.Get(j.ID()); !ok {
		t.Fatal("job collected before TTL")
	}
	clk.Advance(31 * time.Second)
	e.collect(clk.Now())
	if _, ok := e.Get(j.ID()); ok {
		t.Fatal("job survived past TTL")
	}
}

// TestJanitorFakeClock drives the janitor goroutine itself through the
// fake clock's ticker: advancing past the janitor period (min(TTL, 1m))
// and the TTL makes the janitor collect the terminal job with no
// wall-clock sleeps involved. Only the cross-goroutine handoff needs a
// poll (the tick is delivered synchronously by Advance; the janitor
// drains it on its own schedule).
func TestJanitorFakeClock(t *testing.T) {
	e, clk := newTestEngine(t, Options{TTL: time.Minute})
	j, err := e.Submit(context.Background(), "k", "c", "", instant(200))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	clk.Advance(2 * time.Minute) // one coalesced tick, well past TTL
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := e.Get(j.ID()); !ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("janitor never collected the expired job")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestProgressMonotoneClamp(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	started := make(chan *Job, 1)
	release := make(chan struct{})
	j, err := e.Submit(context.Background(), "k", "c", "", func(ctx context.Context, ctl Control) Outcome {
		ctl.Running()
		ctl.Progress(3, 8)
		ctl.Progress(1, 8) // late out-of-order report from a parallel worker
		ctl.Progress(5, 8)
		started <- nil
		<-release
		return Outcome{Status: 200, Body: []byte(`{}`)}
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if p := j.Status().Progress; p.Done != 5 || p.Total != 8 {
		t.Fatalf("progress = %+v, want clamped 5/8", p)
	}
	close(release)
	waitTerminal(t, j)
}

func TestSubscribeCoalesces(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	release := make(chan struct{})
	j, err := e.Submit(context.Background(), "k", "c", "", gated(release))
	if err != nil {
		t.Fatal(err)
	}
	ch := j.Subscribe()
	defer j.Unsubscribe(ch)
	close(release)
	waitTerminal(t, j)
	// At least one signal must have arrived; draining never blocks.
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("no notification delivered")
	}
}

func TestRunnerPanicFailsJob(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	j, err := e.Submit(context.Background(), "k", "c", "", func(ctx context.Context, ctl Control) Outcome {
		panic("solver bug")
	})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, j)
	if st.State != StateFailed || st.HTTPStatus != 500 {
		t.Fatalf("status = %+v", st)
	}
}

func TestSubmitCompleted(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	j, err := e.SubmitCompleted("k", "c", Outcome{Status: 200, Body: []byte(`{"x":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	st := j.Status()
	if st.State != StateSucceeded || !st.Cached || st.Progress.Done != 1 {
		t.Fatalf("status = %+v", st)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("completed job's Done channel not closed")
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	release := make(chan struct{})
	j, err := e.Submit(context.Background(), "k", "c", "", gated(release))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	e.Close() // must wait for the live job
	if st := j.Status(); st.State != StateSucceeded {
		t.Fatalf("state after Close = %s, want drained to succeeded", st.State)
	}
	if _, err := e.Submit(context.Background(), "k", "c", "", instant(200)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close = %v, want ErrClosed", err)
	}
}

func TestCloseWithinCancelsStragglers(t *testing.T) {
	e, _ := newTestEngine(t, Options{})
	release := make(chan struct{})
	defer close(release)
	// gated() honours ctx, standing in for a solver that polls
	// cancellation; release is never closed before CloseWithin fires.
	j, err := e.Submit(context.Background(), "k", "c", "", gated(release))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	e.CloseWithin(50 * time.Millisecond)
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("CloseWithin took %v", el)
	}
	if st := j.Status(); st.State != StateCancelled {
		t.Fatalf("straggler state = %s, want cancelled", st.State)
	}
}

func TestSnapshotNewestFirstAndClientFilter(t *testing.T) {
	e, clk := newTestEngine(t, Options{})
	a, _ := e.Submit(context.Background(), "k", "alice", "", instant(200))
	waitTerminal(t, a)
	clk.Advance(time.Second)
	b, _ := e.Submit(context.Background(), "k", "bob", "", instant(200))
	waitTerminal(t, b)
	all := e.Snapshot("")
	if len(all) != 2 || all[0].ID != b.ID() || all[1].ID != a.ID() {
		t.Fatalf("snapshot order = %+v", all)
	}
	alice := e.Snapshot("alice")
	if len(alice) != 1 || alice[0].ID != a.ID() {
		t.Fatalf("client filter = %+v", alice)
	}
}
