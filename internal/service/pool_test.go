package service

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsTasks(t *testing.T) {
	p := NewPool(2, 4, NewMetrics())
	defer p.Close()
	v, err := p.Do(context.Background(), func() (any, error) { return 7, nil })
	if err != nil || v.(int) != 7 {
		t.Fatalf("Do = %v, %v", v, err)
	}
}

func TestPoolQueueBackpressure(t *testing.T) {
	m := NewMetrics()
	p := NewPool(1, 1, m)
	defer p.Close()

	block := make(chan struct{})
	defer close(block)
	running := make(chan struct{})
	// Occupy the single worker…
	go p.Do(context.Background(), func() (any, error) {
		close(running)
		<-block
		return nil, nil
	})
	<-running
	// …fill the queue slot and wait until it is actually occupied…
	go p.Do(context.Background(), func() (any, error) { return nil, nil })
	waitFor(t, func() bool { return m.QueueDepth() == 1 })
	// …then the next submission must be shed immediately.
	if _, err := p.Do(context.Background(), func() (any, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestPoolContextTimeout(t *testing.T) {
	p := NewPool(1, 4, NewMetrics())
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	_, err := p.Do(ctx, func() (any, error) {
		defer close(done)
		time.Sleep(100 * time.Millisecond)
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The abandoned task still completes without blocking its worker.
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("abandoned task never completed")
	}
}

func TestPoolCloseDrainsAndRejects(t *testing.T) {
	p := NewPool(2, 8, NewMetrics())
	var ran atomic.Int64
	results := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			_, err := p.Do(context.Background(), func() (any, error) {
				time.Sleep(5 * time.Millisecond)
				ran.Add(1)
				return nil, nil
			})
			results <- err
		}()
	}
	// Give the submissions a moment to enqueue, then close.
	time.Sleep(20 * time.Millisecond)
	p.Close()
	if _, err := p.Do(context.Background(), func() (any, error) { return nil, nil }); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Do after Close = %v, want ErrPoolClosed", err)
	}
	// Every accepted task ran to completion (drain); a submission may
	// also have been shed (queue full) or have lost the race with Close
	// on a slow machine (pool closed) — both are legal rejections.
	for i := 0; i < 8; i++ {
		if err := <-results; err != nil && !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrPoolClosed) {
			t.Fatalf("task error %v", err)
		}
	}
}

func TestPoolQueueDepthGauge(t *testing.T) {
	m := NewMetrics()
	p := NewPool(1, 4, m)
	block := make(chan struct{})
	running := make(chan struct{})
	go p.Do(context.Background(), func() (any, error) {
		close(running)
		<-block
		return nil, nil
	})
	<-running
	done := make(chan struct{})
	go func() {
		p.Do(context.Background(), func() (any, error) { return nil, nil })
		close(done)
	}()
	// One task queued behind the blocked worker.
	waitFor(t, func() bool { return m.QueueDepth() == 1 })
	close(block)
	<-done
	waitFor(t, func() bool { return m.QueueDepth() == 0 })
	p.Close()
}

func TestPoolRecoversPanickingTask(t *testing.T) {
	p := NewPool(1, 4, NewMetrics())
	defer p.Close()
	_, err := p.Do(context.Background(), func() (any, error) { panic("solver bug") })
	if !errors.Is(err, ErrSolvePanic) {
		t.Fatalf("err = %v, want ErrSolvePanic", err)
	}
	// The single worker survived the panic and keeps serving.
	v, err := p.Do(context.Background(), func() (any, error) { return 9, nil })
	if err != nil || v.(int) != 9 {
		t.Fatalf("Do after panic = %v, %v", v, err)
	}
}

func TestDoWaitBlocksInsteadOfShedding(t *testing.T) {
	p := NewPool(1, 1, NewMetrics())
	defer p.Close()
	block := make(chan struct{})
	running := make(chan struct{})
	go p.Do(context.Background(), func() (any, error) {
		close(running)
		<-block
		return nil, nil
	})
	<-running
	// Fill the 1-slot queue, so a Do would shed with ErrQueueFull...
	go p.Do(context.Background(), func() (any, error) { return nil, nil })
	waitFor(t, func() bool { return len(p.queue) == 1 })
	if _, err := p.Do(context.Background(), func() (any, error) { return nil, nil }); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Do on full queue = %v, want ErrQueueFull", err)
	}
	// ...while DoWait blocks until a slot frees and then completes.
	done := make(chan error, 1)
	go func() {
		_, err := p.DoWait(context.Background(), func() (any, error) { return nil, nil })
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("DoWait returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("DoWait = %v", err)
	}
}

func TestDoWaitCancelledWhileQueued(t *testing.T) {
	p := NewPool(1, 1, NewMetrics())
	defer p.Close()
	block := make(chan struct{})
	defer close(block)
	running := make(chan struct{})
	go p.Do(context.Background(), func() (any, error) {
		close(running)
		<-block
		return nil, nil
	})
	<-running
	go p.Do(context.Background(), func() (any, error) { return nil, nil })
	waitFor(t, func() bool { return len(p.queue) == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.DoWait(ctx, func() (any, error) { return nil, nil })
		done <- err
	}()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("DoWait after cancel = %v, want context.Canceled", err)
	}
}

// TestDoWaitInterruptedByClose: Close while a DoWait waits for a slot
// on a full queue must not close the queue under the blocked sender.
// The DoWait returns ErrPoolClosed, the queued task still drains, and
// the queue-depth gauge settles at zero.
func TestDoWaitInterruptedByClose(t *testing.T) {
	m := NewMetrics()
	p := NewPool(1, 1, m)
	block := make(chan struct{})
	running := make(chan struct{})
	go p.Do(context.Background(), func() (any, error) {
		close(running)
		<-block
		return nil, nil
	})
	<-running
	queued := make(chan error, 1)
	go func() {
		_, err := p.Do(context.Background(), func() (any, error) { return nil, nil })
		queued <- err
	}()
	waitFor(t, func() bool { return len(p.queue) == 1 })
	waited := make(chan error, 1)
	go func() {
		_, err := p.DoWait(context.Background(), func() (any, error) { return nil, nil })
		waited <- err
	}()
	waitFor(t, func() bool { return m.QueueDepth() == 2 })
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	if err := <-waited; !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("DoWait interrupted by Close = %v, want ErrPoolClosed", err)
	}
	close(block)
	<-closed
	if err := <-queued; err != nil {
		t.Fatalf("queued task = %v", err)
	}
	if d := m.QueueDepth(); d != 0 {
		t.Fatalf("queue depth after Close = %v, want 0", d)
	}
}

// waitFor polls cond for up to 2 seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}
