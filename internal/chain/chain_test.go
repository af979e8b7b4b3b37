package chain

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"relpipe/internal/rng"
)

func sample() Chain {
	return Chain{{Work: 10, Out: 2}, {Work: 5, Out: 3}, {Work: 7, Out: 0}}
}

func TestValidateOK(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		c    Chain
	}{
		{"empty", Chain{}},
		{"zero work", Chain{{Work: 0, Out: 0}}},
		{"negative work", Chain{{Work: -1, Out: 0}}},
		{"negative out", Chain{{Work: 1, Out: -2}, {Work: 1, Out: 0}}},
		{"last out nonzero", Chain{{Work: 1, Out: 1}, {Work: 1, Out: 5}}},
		{"NaN work", Chain{{Work: math.NaN(), Out: 2}, {Work: 1, Out: 0}}},
		{"NaN out", Chain{{Work: 1, Out: math.NaN()}, {Work: 1, Out: 0}}},
	}
	for _, c := range cases {
		if err := c.c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid chain", c.name)
		}
	}
}

func TestTotalWork(t *testing.T) {
	if got := sample().TotalWork(); got != 22 {
		t.Fatalf("TotalWork = %v, want 22", got)
	}
}

func TestWorkRange(t *testing.T) {
	c := sample()
	cases := []struct {
		first, last int
		want        float64
	}{
		{0, 0, 10}, {0, 1, 15}, {1, 2, 12}, {0, 2, 22}, {2, 2, 7},
	}
	for _, cs := range cases {
		if got := c.Work(cs.first, cs.last); got != cs.want {
			t.Errorf("Work(%d,%d) = %v, want %v", cs.first, cs.last, got, cs.want)
		}
	}
}

func TestWorkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Work(2,1) did not panic")
		}
	}()
	sample().Work(2, 1)
}

func TestOutBoundary(t *testing.T) {
	c := sample()
	if c.Out(-1) != 0 {
		t.Fatal("Out(-1) must be 0 (environment input)")
	}
	if c.Out(0) != 2 || c.Out(1) != 3 || c.Out(2) != 0 {
		t.Fatal("Out(i) mismatch")
	}
}

func TestPrefixMatchesDirect(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.IntN(40)
		c := PaperRandom(r, n)
		p := NewPrefix(c)
		for trial := 0; trial < 20; trial++ {
			first := r.IntN(n)
			last := first + r.IntN(n-first)
			if math.Abs(p.Work(first, last)-c.Work(first, last)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixPanics(t *testing.T) {
	p := NewPrefix(sample())
	defer func() {
		if recover() == nil {
			t.Fatal("Prefix.Work out of range did not panic")
		}
	}()
	p.Work(0, 3)
}

func TestRandomRespectsRanges(t *testing.T) {
	r := rng.New(99)
	c := Random(r, 50, 2, 8, 1, 4)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, task := range c {
		if task.Work < 2 || task.Work >= 8 {
			t.Fatalf("task %d work %v out of [2,8)", i, task.Work)
		}
		if i < len(c)-1 && (task.Out < 1 || task.Out >= 4) {
			t.Fatalf("task %d out %v out of [1,4)", i, task.Out)
		}
	}
	if c[len(c)-1].Out != 0 {
		t.Fatal("last task out != 0")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := PaperRandom(rng.New(5), 15)
	b := PaperRandom(rng.New(5), 15)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different chains at task %d", i)
		}
	}
}

func TestRandomPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Random(n=0) did not panic")
		}
	}()
	Random(rng.New(1), 0, 1, 2, 1, 2)
}

func TestJSONRoundTrip(t *testing.T) {
	c := sample()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Chain
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != len(c) {
		t.Fatalf("round trip lost tasks: %d vs %d", len(back), len(c))
	}
	for i := range c {
		if back[i] != c[i] {
			t.Fatalf("task %d mismatch: %+v vs %+v", i, back[i], c[i])
		}
	}
}

func TestUnmarshalValidates(t *testing.T) {
	var c Chain
	if err := json.Unmarshal([]byte(`[{"work":-1,"out":0}]`), &c); err == nil {
		t.Fatal("Unmarshal accepted invalid chain")
	}
}

func TestString(t *testing.T) {
	s := sample().String()
	if !strings.Contains(s, "->") {
		t.Fatalf("String() = %q, want arrows", s)
	}
}
