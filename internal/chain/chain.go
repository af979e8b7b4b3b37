package chain

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"relpipe/internal/jsonscan"
	"relpipe/internal/rng"
)

// Task is one stage of the pipeline: Work units of computation producing
// Out units of output data.
type Task struct {
	Work float64 `json:"work"`
	Out  float64 `json:"out"`
}

// Chain is a linear chain of tasks, indexed from 0. The chain is executed
// repeatedly in a pipelined manner, one data set per period.
type Chain []Task

// Validate checks the structural invariants of the model: at least one
// task, strictly positive work, non-negative output sizes, and a zero
// output size for the last task (it emits to the environment).
func (c Chain) Validate() error {
	if len(c) == 0 {
		return errors.New("chain: empty chain")
	}
	for i, t := range c {
		if math.IsNaN(t.Work) {
			return fmt.Errorf("chain: task %d has NaN work", i)
		}
		if math.IsNaN(t.Out) {
			return fmt.Errorf("chain: task %d has NaN output size", i)
		}
		if t.Work <= 0 {
			return fmt.Errorf("chain: task %d has non-positive work %v", i, t.Work)
		}
		if t.Out < 0 {
			return fmt.Errorf("chain: task %d has negative output size %v", i, t.Out)
		}
	}
	if c[len(c)-1].Out != 0 {
		return fmt.Errorf("chain: last task must have zero output size, got %v", c[len(c)-1].Out)
	}
	return nil
}

// TotalWork returns Σ w_i.
func (c Chain) TotalWork() float64 {
	s := 0.0
	for _, t := range c {
		s += t.Work
	}
	return s
}

// Work returns the total work of tasks [first, last] (0-based, inclusive).
// It panics on an invalid range.
func (c Chain) Work(first, last int) float64 {
	if first < 0 || last >= len(c) || first > last {
		panic(fmt.Sprintf("chain: invalid task range [%d,%d] for n=%d", first, last, len(c)))
	}
	s := 0.0
	for i := first; i <= last; i++ {
		s += c[i].Work
	}
	return s
}

// Out returns o_i for 0-based task i; Out(-1) returns 0, the size of the
// input read from the environment (o_0 = 0 in the paper's 1-based
// notation). This makes boundary handling uniform for interval code.
func (c Chain) Out(i int) float64 {
	if i < 0 {
		return 0
	}
	return c[i].Out
}

// Prefix caches prefix sums of work for O(1) interval-work queries; the
// dynamic programs and the exhaustive solver query interval work Θ(n²)
// times per instance.
type Prefix struct {
	sums []float64 // sums[i] = Σ work of tasks [0, i)
}

// NewPrefix builds the prefix sums for c.
func NewPrefix(c Chain) *Prefix {
	p := &Prefix{sums: make([]float64, len(c)+1)}
	for i, t := range c {
		p.sums[i+1] = p.sums[i] + t.Work
	}
	return p
}

// Work returns the total work of tasks [first, last] inclusive in O(1).
func (p *Prefix) Work(first, last int) float64 {
	if first < 0 || last >= len(p.sums)-1 || first > last {
		panic(fmt.Sprintf("chain: invalid prefix range [%d,%d]", first, last))
	}
	return p.sums[last+1] - p.sums[first]
}

// Random generates a random chain with the paper's §8 recipe: n tasks with
// work uniform in [wMin, wMax] and output sizes uniform in [oMin, oMax],
// except o_n = 0.
func Random(r *rng.Rand, n int, wMin, wMax, oMin, oMax float64) Chain {
	if n <= 0 {
		panic("chain: Random with n <= 0")
	}
	c := make(Chain, n)
	for i := range c {
		c[i].Work = r.Uniform(wMin, wMax)
		if i < n-1 {
			c[i].Out = r.Uniform(oMin, oMax)
		}
	}
	return c
}

// PaperRandom generates a chain with the exact parameter ranges of the
// paper's experiments (§8): computation costs in [1,100], communication
// costs in [1,10].
func PaperRandom(r *rng.Rand, n int) Chain {
	return Random(r, n, 1, 100, 1, 10)
}

// MarshalJSON implements json.Marshaler.
func (c Chain) MarshalJSON() ([]byte, error) {
	return json.Marshal([]Task(c))
}

// UnmarshalJSON implements json.Unmarshaler and validates the result.
// The common document — an array of {"work","out"} objects with plain
// number values — is scanned in one pass; any other document goes to
// the strict encoding/json reference, which rejects unknown fields.
func (c *Chain) UnmarshalJSON(b []byte) error {
	s := jsonscan.New(b)
	ts := Scan(&s)
	if !s.Done() {
		var ref []Task
		if err := jsonscan.Strict(b, &ref); err != nil {
			return err
		}
		ts = ref
	}
	*c = ts
	return c.Validate()
}

// taskMembers are the member names of a task object.
var taskMembers = []string{"work", "out"}

// Scan is the one-pass decode of the chain array at s's cursor, shared
// by UnmarshalJSON and whole-document decoders. It does not validate,
// and its result is meaningful only if s has not declined.
func Scan(s *jsonscan.Scanner) Chain {
	ts := make(Chain, 0, s.ArrayCap(len(`{"work":1}`)))
	s.Array(func() {
		var t Task
		s.Members(taskMembers, func(name string) {
			switch name {
			case "work":
				t.Work = s.Float()
			case "out":
				t.Out = s.Float()
			}
		})
		ts = append(ts, t)
	})
	return ts
}

// String renders the chain compactly: (w1|o1) -> (w2|o2) -> ...
func (c Chain) String() string {
	s := ""
	for i, t := range c {
		if i > 0 {
			s += " -> "
		}
		s += fmt.Sprintf("(w=%.3g,o=%.3g)", t.Work, t.Out)
	}
	return s
}
