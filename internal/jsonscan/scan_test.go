package jsonscan

import (
	"encoding/json"
	"math"
	"testing"
)

// TestNumberGrammar: the scanner accepts exactly the RFC 8259 number
// literals, with the bits encoding/json gives them, and declines the
// spellings strconv.ParseFloat would otherwise take (hex, Inf, NaN,
// underscores, a leading +) along with every malformed literal.
func TestNumberGrammar(t *testing.T) {
	for _, lit := range []string{"0", "-0", "7", "-12", "1.5", "0.25e-3", "1E+2", "6.02e23", " 4 ", "1e-400", "2.2250738585072011e-308"} {
		s := New([]byte(lit))
		got := s.Float()
		if !s.Done() {
			t.Errorf("%q: declined, want accepted", lit)
			continue
		}
		var want float64
		if err := json.Unmarshal([]byte(lit), &want); err != nil {
			t.Fatalf("%q: reference rejects: %v", lit, err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%q: bits %x, reference %x", lit, math.Float64bits(got), math.Float64bits(want))
		}
	}
	for _, lit := range []string{"", "-", "+1", "01", "-01", "1.", ".5", "1e", "1e+", "0x1p3", "Inf", "NaN", "1_000", "1e400", "-1e400", "null", `"1"`, "1 2"} {
		s := New([]byte(lit))
		s.Float()
		if s.Done() {
			t.Errorf("%q: accepted, want declined", lit)
		}
	}
}

// TestIntGrammar: Int takes only integers in int range, as encoding/json
// does for an int field.
func TestIntGrammar(t *testing.T) {
	for lit, want := range map[string]int{"3": 3, "-0": 0, "9223372036854775807": math.MaxInt64} {
		s := New([]byte(lit))
		if got := s.Int(); !s.Done() || got != want {
			t.Errorf("%q: got %d (accepted %v), want %d", lit, got, s.Done(), want)
		}
	}
	for _, lit := range []string{"3.0", "3e0", "9223372036854775808", "true"} {
		s := New([]byte(lit))
		s.Int()
		if s.Done() {
			t.Errorf("%q: accepted, want declined", lit)
		}
	}
}

// TestStructure: arrays and objects with whitespace scan; escapes,
// non-ASCII keys, trailing commas and trailing data decline.
func TestStructure(t *testing.T) {
	scan := func(doc string) (sum float64, ok bool) {
		s := New([]byte(doc))
		s.Array(func() {
			s.Object(func([]byte) { sum += s.Float() })
		})
		return sum, s.Done()
	}
	for doc, want := range map[string]float64{
		`[]`:                                    0,
		` [ {} , { "a" : 1 } ] `:                1,
		"[{\"a\":1,\"b\":2},\n\t{\"c\":3}]\r\n": 6,
	} {
		if sum, ok := scan(doc); !ok || sum != want {
			t.Errorf("%q: sum %v ok %v, want %v accepted", doc, sum, ok, want)
		}
	}
	for _, doc := range []string{
		`[{"a":1},]`, `[{"a":1}`, `[{"a":1}] x`, `[{"a":1}][]`,
		`[{"é":1}]`, `[{"a" 1}]`, `[{"a":1,}]`, `[{a:1}]`, `[1]`, `null`, `{}`,
	} {
		if _, ok := scan(doc); ok {
			t.Errorf("%q: accepted, want declined", doc)
		}
	}
}

// TestCapHint: exact for flat objects, capped by the document length.
func TestCapHint(t *testing.T) {
	if got := CapHint([]byte(`[{"work":1},{"work":2}]`), 10); got != 2 {
		t.Errorf("flat array: %d, want 2", got)
	}
	if got := CapHint([]byte(`[{"x":"{{{{{{{{{{{{{{{{{{{{"}]`), 10); got != 3 {
		t.Errorf("braces in a string: %d, want the length cap 3", got)
	}
}
