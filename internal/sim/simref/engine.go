package simref

import (
	"container/heap"
	"fmt"
	"math"
)

// engine is the closure-per-event loop the oracle runs on: a clock and
// a time-ordered queue of callbacks with a stable FIFO tie-break, so
// events at equal times run in the order they were scheduled. The
// order is a pure function of the scheduled (time, insertion order)
// pairs; the engine adds no randomness and no goroutines.
type engine struct {
	now float64
	q   eventQueue
	seq int64
}

type event struct {
	t   float64
	seq int64 // insertion order: stable tie-breaking
	fn  func()
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// newEngine returns an engine with the clock at 0.
func newEngine() *engine { return &engine{} }

// Now returns the current simulation time.
func (e *engine) Now() float64 { return e.now }

// At schedules fn at absolute time t. Events at equal times run in
// scheduling order. It panics if t is in the past or not a number.
func (e *engine) At(t float64, fn func()) {
	if math.IsNaN(t) || t < e.now {
		panic(fmt.Sprintf("simref: scheduling at %v before now=%v", t, e.now))
	}
	heap.Push(&e.q, event{t: t, seq: e.seq, fn: fn})
	e.seq++
}

// Run executes events, advancing the clock to each, until the queue is
// empty.
func (e *engine) Run() {
	for len(e.q) > 0 {
		ev := heap.Pop(&e.q).(event)
		e.now = ev.t
		ev.fn()
	}
}
