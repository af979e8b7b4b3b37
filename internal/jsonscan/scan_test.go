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
			s.Members([]string{"a", "b", "c"}, func(string) { sum += s.Float() })
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

// TestUintGrammar: Uint takes exactly what encoding/json takes for a
// uint64 field.
func TestUintGrammar(t *testing.T) {
	for lit, want := range map[string]uint64{"0": 0, "7": 7, "18446744073709551615": math.MaxUint64} {
		s := New([]byte(lit))
		if got := s.Uint(); !s.Done() || got != want {
			t.Errorf("%q: got %d (accepted %v), want %d", lit, got, s.Done(), want)
		}
	}
	for _, lit := range []string{"-1", "-0", "1.0", "1e2", "18446744073709551616", `"1"`} {
		s := New([]byte(lit))
		s.Uint()
		if s.Done() {
			t.Errorf("%q: accepted, want declined", lit)
		}
	}
}

// TestStringsAndBools: plain ASCII strings and the two boolean literals
// scan; escapes, control and non-ASCII bytes, null and case variants
// decline.
func TestStringsAndBools(t *testing.T) {
	for lit, want := range map[string]string{`"dp"`: "dp", ` "two-hop" `: "two-hop", `""`: "", "\"a~\x7f\"": "a~\x7f"} {
		s := New([]byte(lit))
		if got := s.Text(); !s.Done() || got != want {
			t.Errorf("%q: got %q (accepted %v), want %q", lit, got, s.Done(), want)
		}
	}
	for _, lit := range []string{`"d\u0070"`, `"a\"b"`, "\"tab\there\"", `"é"`, `"open`, `null`, `1`} {
		s := New([]byte(lit))
		_ = s.Text()
		if s.Done() {
			t.Errorf("%q: accepted, want declined", lit)
		}
	}
	for lit, want := range map[string]bool{"true": true, " false ": false} {
		s := New([]byte(lit))
		if got := s.Bool(); !s.Done() || got != want {
			t.Errorf("%q: got %v (accepted %v), want %v", lit, got, s.Done(), want)
		}
	}
	for _, lit := range []string{"True", "null", "1", `"true"`, "tru", "truex"} {
		s := New([]byte(lit))
		s.Bool()
		if s.Done() {
			t.Errorf("%q: accepted, want declined", lit)
		}
	}
}

// TestMembers: known members in any order and absent members scan; an
// unknown, case-variant or repeated member declines.
func TestMembers(t *testing.T) {
	scan := func(doc string) (got map[string]float64, ok bool) {
		got = map[string]float64{}
		s := New([]byte(doc))
		s.Members([]string{"period", "latency"}, func(name string) { got[name] = s.Float() })
		return got, s.Done()
	}
	for doc, want := range map[string]int{`{}`: 0, `{"latency":2}`: 1, `{"latency":2,"period":1}`: 2} {
		if got, ok := scan(doc); !ok || len(got) != want {
			t.Errorf("%q: %v ok %v, want %d members accepted", doc, got, ok, want)
		}
	}
	for _, doc := range []string{`{"x":1}`, `{"Period":1}`, `{"period":1,"period":2}`, `{"period":null}`, `null`, `[]`} {
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

// TestArrayCap: the hint counts the array at the cursor only, not the
// objects that follow it in the document.
func TestArrayCap(t *testing.T) {
	s := New([]byte(`{"procs": [{"speed":1},{"speed":2}], "a":{}, "b":{}, "c":{}}`))
	s.Members([]string{"procs", "a", "b", "c"}, func(name string) {
		if name == "procs" {
			if got := s.ArrayCap(len(`{"speed":1}`)); got != 2 {
				t.Errorf("ArrayCap = %d, want 2", got)
			}
			s.Array(func() { s.Members([]string{"speed"}, func(string) { s.Float() }) })
			return
		}
		s.Members(nil, nil)
	})
	if !s.Done() {
		t.Fatal("declined")
	}
}
