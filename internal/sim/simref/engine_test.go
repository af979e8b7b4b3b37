package simref

import (
	"math"
	"testing"
)

func TestEventOrdering(t *testing.T) {
	e := newEngine()
	var order []int
	e.At(3, func() { order = append(order, 3) })
	e.At(1, func() { order = append(order, 1) })
	e.At(2, func() { order = append(order, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %v, want 3", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := newEngine()
	var order []int
	for i := 0; i < 10; i++ {
		e.At(5, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("equal-time events ran out of insertion order: %v", order)
		}
	}
}

func TestReentrantScheduling(t *testing.T) {
	// Events scheduled at the current time from within an event must
	// still run, after already-queued same-time events.
	e := newEngine()
	var order []string
	e.At(1, func() {
		order = append(order, "a")
		e.At(e.Now(), func() { order = append(order, "c") })
	})
	e.At(1, func() { order = append(order, "b") })
	e.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("order = %v, want [a b c]", order)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := newEngine()
	e.At(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At(past) did not panic")
		}
	}()
	e.At(1, func() {})
}

// TestNaNSchedulingPanics: NaN times must fail loudly.
func TestNaNSchedulingPanics(t *testing.T) {
	e := newEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("At(NaN) did not panic")
		}
	}()
	e.At(math.NaN(), func() {})
}

func TestManyEvents(t *testing.T) {
	e := newEngine()
	const n = 100000
	count := 0
	for i := 0; i < n; i++ {
		e.At(float64(n-i), func() { count++ })
	}
	e.Run()
	if count != n {
		t.Fatalf("count = %d, want %d", count, n)
	}
}
