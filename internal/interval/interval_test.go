package interval

import (
	"testing"
	"testing/quick"

	"relpipe/internal/chain"
	"relpipe/internal/rng"
)

func testChain() chain.Chain {
	return chain.Chain{
		{Work: 10, Out: 2}, {Work: 5, Out: 3}, {Work: 7, Out: 1},
		{Work: 4, Out: 6}, {Work: 9, Out: 0},
	}
}

func TestValidateOK(t *testing.T) {
	p := Partition{{0, 1}, {2, 2}, {3, 4}}
	if err := p.Validate(5); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		p    Partition
	}{
		{"empty", Partition{}},
		{"gap", Partition{{0, 1}, {3, 4}}},
		{"overlap", Partition{{0, 2}, {2, 4}}},
		{"short", Partition{{0, 3}}},
		{"long", Partition{{0, 5}}},
		{"empty interval", Partition{{0, 1}, {2, 1}, {2, 4}}},
		{"bad start", Partition{{1, 4}}},
	}
	for _, c := range cases {
		if err := c.p.Validate(5); err == nil {
			t.Errorf("%s: accepted invalid partition %v", c.name, c.p)
		}
	}
}

func TestFromEndsRoundTrip(t *testing.T) {
	ends := []int{1, 2, 4}
	p := FromEnds(ends)
	if err := p.Validate(5); err != nil {
		t.Fatal(err)
	}
	got := p.Ends()
	for i := range ends {
		if got[i] != ends[i] {
			t.Fatalf("Ends round trip: %v vs %v", got, ends)
		}
	}
}

func TestSingleAndFinest(t *testing.T) {
	if err := Single(7).Validate(7); err != nil {
		t.Fatal(err)
	}
	f := Finest(7)
	if err := f.Validate(7); err != nil {
		t.Fatal(err)
	}
	if len(f) != 7 {
		t.Fatalf("Finest(7) has %d intervals", len(f))
	}
	for i, iv := range f {
		if iv.Size() != 1 || iv.First != i {
			t.Fatalf("Finest interval %d = %+v", i, iv)
		}
	}
}

func TestWorkInOut(t *testing.T) {
	c := testChain()
	p := Partition{{0, 1}, {2, 3}, {4, 4}}
	if got := p.Work(c, 0); got != 15 {
		t.Fatalf("Work(0) = %v, want 15", got)
	}
	if got := p.Work(c, 1); got != 11 {
		t.Fatalf("Work(1) = %v, want 11", got)
	}
	if got := p.Out(c, 0); got != 3 { // o of task 1
		t.Fatalf("Out(0) = %v, want 3", got)
	}
	if got := p.Out(c, 2); got != 0 {
		t.Fatalf("Out(last) = %v, want 0", got)
	}
	if got := p.In(c, 0); got != 0 {
		t.Fatalf("In(first) = %v, want 0", got)
	}
	if got := p.In(c, 1); got != 3 {
		t.Fatalf("In(1) = %v, want 3", got)
	}
	if got := p.In(c, 2); got != 6 {
		t.Fatalf("In(2) = %v, want 6", got)
	}
}

func TestMaxWorkSumComm(t *testing.T) {
	c := testChain()
	p := Partition{{0, 1}, {2, 3}, {4, 4}}
	if got := p.MaxWork(c); got != 15 {
		t.Fatalf("MaxWork = %v, want 15", got)
	}
	if got := p.SumComm(c); got != 9 { // 3 + 6 + 0
		t.Fatalf("SumComm = %v, want 9", got)
	}
}

func TestVisitCountsAndValidity(t *testing.T) {
	for n := 1; n <= 10; n++ {
		count := 0
		Visit(n, func(p Partition) bool {
			if err := p.Validate(n); err != nil {
				t.Fatalf("n=%d: invalid partition %v: %v", n, p, err)
			}
			count++
			return true
		})
		if count != Count(n) {
			t.Fatalf("n=%d: visited %d partitions, want %d", n, count, Count(n))
		}
	}
}

func TestVisitDistinct(t *testing.T) {
	n := 8
	seen := map[string]bool{}
	Visit(n, func(p Partition) bool {
		s := p.String()
		if seen[s] {
			t.Fatalf("duplicate partition %s", s)
		}
		seen[s] = true
		return true
	})
}

func TestVisitEarlyStop(t *testing.T) {
	count := 0
	Visit(10, func(p Partition) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d, want 5", count)
	}
}

func TestVisitMCounts(t *testing.T) {
	// C(n-1, m-1) partitions of n tasks into m intervals.
	binom := func(n, k int) int {
		if k < 0 || k > n {
			return 0
		}
		r := 1
		for i := 0; i < k; i++ {
			r = r * (n - i) / (i + 1)
		}
		return r
	}
	for n := 1; n <= 9; n++ {
		total := 0
		for m := 1; m <= n; m++ {
			count := 0
			VisitM(n, m, func(p Partition) bool {
				if err := p.Validate(n); err != nil {
					t.Fatalf("n=%d m=%d: invalid %v: %v", n, m, p, err)
				}
				if len(p) != m {
					t.Fatalf("n=%d m=%d: got %d intervals", n, m, len(p))
				}
				count++
				return true
			})
			if want := binom(n-1, m-1); count != want {
				t.Fatalf("n=%d m=%d: %d partitions, want %d", n, m, count, want)
			}
			total += count
		}
		if total != Count(n) {
			t.Fatalf("n=%d: Σ_m C(n-1,m-1) = %d != 2^{n-1} = %d", n, total, Count(n))
		}
	}
}

func TestVisitMEarlyStop(t *testing.T) {
	count := 0
	VisitM(10, 4, func(p Partition) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d, want 3", count)
	}
}

func TestVisitPanicsOnHugeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Visit(31) did not panic")
		}
	}()
	Visit(31, func(Partition) bool { return true })
}

func TestCloneIndependent(t *testing.T) {
	p := Partition{{0, 1}, {2, 4}}
	q := p.Clone()
	q[0].Last = 3
	if p[0].Last != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestPartitionWorkTilesTotal(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(12)
		c := chain.PaperRandom(r, n)
		ok := true
		Visit(n, func(p Partition) bool {
			sum := 0.0
			for j := range p {
				sum += p.Work(c, j)
			}
			if diff := sum - c.TotalWork(); diff > 1e-9 || diff < -1e-9 {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Finest returns the n-interval partition (one task per interval).
func Finest(n int) Partition {
	p := make(Partition, n)
	for i := range p {
		p[i] = Interval{First: i, Last: i}
	}
	return p
}

// MaxWork returns the largest interval work, the computation part of the
// worst-case period on a unit-speed processor.
func (p Partition) MaxWork(c chain.Chain) float64 {
	m := 0.0
	for j := range p {
		if w := p.Work(c, j); w > m {
			m = w
		}
	}
	return m
}

// SumComm returns the total boundary communication Σ_j o_{l_j}, the
// communication part of the latency (each boundary is charged once,
// Eq. (5)).
func (p Partition) SumComm(c chain.Chain) float64 {
	s := 0.0
	for j := range p {
		s += p.Out(c, j)
	}
	return s
}
