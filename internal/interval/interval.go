package interval

import (
	"fmt"

	"relpipe/internal/chain"
)

// Interval is a maximal run of consecutive tasks assigned to the same
// processor set.
type Interval struct {
	First int `json:"first"` // index of the first task, inclusive
	Last  int `json:"last"`  // index of the last task, inclusive
}

// Partition is an ordered division of the chain into intervals.
type Partition []Interval

// Validate checks that p tiles [0, n) exactly with non-empty intervals.
func (p Partition) Validate(n int) error {
	if len(p) == 0 {
		return fmt.Errorf("interval: empty partition")
	}
	next := 0
	for j, iv := range p {
		if iv.First != next {
			return fmt.Errorf("interval: interval %d starts at %d, want %d", j, iv.First, next)
		}
		if iv.Last < iv.First {
			return fmt.Errorf("interval: interval %d is empty (%d..%d)", j, iv.First, iv.Last)
		}
		next = iv.Last + 1
	}
	if next != n {
		return fmt.Errorf("interval: partition covers [0,%d), want [0,%d)", next, n)
	}
	return nil
}

// FromEnds builds a partition from the sorted list of last-task indices of
// each interval; the final entry must be n-1. For example, for n=5,
// ends=[1,4] produces intervals [0,1] and [2,4].
func FromEnds(ends []int) Partition {
	p := make(Partition, len(ends))
	first := 0
	for j, e := range ends {
		p[j] = Interval{First: first, Last: e}
		first = e + 1
	}
	return p
}

// Ends returns the last-task index of each interval, the inverse of
// FromEnds.
func (p Partition) Ends() []int {
	ends := make([]int, len(p))
	for j, iv := range p {
		ends[j] = iv.Last
	}
	return ends
}

// Single returns the one-interval partition of a chain of n tasks.
func Single(n int) Partition { return Partition{{First: 0, Last: n - 1}} }

// Size returns the number of tasks in the interval.
func (iv Interval) Size() int { return iv.Last - iv.First + 1 }

// Work returns the total work W_j of interval j of the chain.
func (p Partition) Work(c chain.Chain, j int) float64 {
	return c.Work(p[j].First, p[j].Last)
}

// Out returns the output size o_{l_j} of interval j: the output of its
// last task (0 for the final interval by the chain invariant).
func (p Partition) Out(c chain.Chain, j int) float64 {
	return c.Out(p[j].Last)
}

// In returns the input size of interval j: the output of the task
// preceding its first task (0 for the first interval).
func (p Partition) In(c chain.Chain, j int) float64 {
	return c.Out(p[j].First - 1)
}

// Visit enumerates every partition of a chain of n tasks (2^{n-1} of
// them), calling fn for each. The Partition passed to fn is reused across
// calls; fn must copy it if it retains it. Enumeration stops early if fn
// returns false. Visit panics if n exceeds 30 (2^29 partitions), a guard
// against accidental exponential blow-up: the exact solver is meant for
// paper-scale instances.
func Visit(n int, fn func(Partition) bool) {
	VisitRange(n, 0, Count(n), fn)
}

// VisitRange enumerates the partitions with index in [lo, hi) of the
// 2^{n-1}-partition space, in index order. The index of a partition is
// its cut bitmask (bit i set means "cut after task i"), so VisitRange
// over contiguous ranges shards the Visit enumeration exactly: visiting
// [0, k) then [k, Count(n)) reproduces Visit's order. Same reuse and
// early-stop contract as Visit.
func VisitRange(n, lo, hi int, fn func(Partition) bool) {
	if n <= 0 {
		panic("interval: Visit with n <= 0")
	}
	if n > 30 {
		panic("interval: Visit beyond n=30 is intractable; use the heuristics")
	}
	if lo < 0 || hi > Count(n) || lo > hi {
		panic(fmt.Sprintf("interval: VisitRange [%d,%d) outside [0,%d]", lo, hi, Count(n)))
	}
	buf := make(Partition, 0, n)
	for mask := uint32(lo); mask < uint32(hi); mask++ {
		buf = buf[:0]
		first := 0
		for i := 0; i < n-1; i++ {
			if mask&(1<<i) != 0 {
				buf = append(buf, Interval{First: first, Last: i})
				first = i + 1
			}
		}
		buf = append(buf, Interval{First: first, Last: n - 1})
		if !fn(buf) {
			return
		}
	}
}

// VisitM enumerates every partition of n tasks into exactly m intervals
// (C(n-1, m-1) of them). Same reuse and early-stop contract as Visit.
func VisitM(n, m int, fn func(Partition) bool) {
	if m < 1 || m > n {
		panic(fmt.Sprintf("interval: VisitM with m=%d outside [1,%d]", m, n))
	}
	// Choose m-1 cut positions out of n-1 in lexicographic order.
	cuts := make([]int, m-1)
	for i := range cuts {
		cuts[i] = i
	}
	buf := make(Partition, 0, m)
	emit := func() bool {
		buf = buf[:0]
		first := 0
		for _, cpos := range cuts {
			buf = append(buf, Interval{First: first, Last: cpos})
			first = cpos + 1
		}
		buf = append(buf, Interval{First: first, Last: n - 1})
		return fn(buf)
	}
	if m == 1 {
		fn(Partition{{First: 0, Last: n - 1}})
		return
	}
	for {
		if !emit() {
			return
		}
		// Next combination.
		i := m - 2
		for i >= 0 && cuts[i] == n-1-(m-1)+i {
			i--
		}
		if i < 0 {
			return
		}
		cuts[i]++
		for j := i + 1; j < m-1; j++ {
			cuts[j] = cuts[j-1] + 1
		}
	}
}

// Count returns the number of partitions of n tasks: 2^{n-1}.
func Count(n int) int {
	if n <= 0 || n > 30 {
		panic("interval: Count out of supported range")
	}
	return 1 << (n - 1)
}

// Clone returns a deep copy of the partition.
func (p Partition) Clone() Partition {
	q := make(Partition, len(p))
	copy(q, p)
	return q
}

// String renders the partition as [0..2][3..5]...
func (p Partition) String() string {
	s := ""
	for _, iv := range p {
		s += fmt.Sprintf("[%d..%d]", iv.First, iv.Last)
	}
	return s
}
