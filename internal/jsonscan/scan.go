package jsonscan

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strconv"
)

// Scanner walks one JSON document left to right. A decline is sticky:
// once the document leaves the common grammar every later call is a
// no-op, and Done reports false.
type Scanner struct {
	b        []byte
	i        int
	declined bool
}

// New returns a Scanner positioned at the start of b.
func New(b []byte) Scanner { return Scanner{b: b} }

// Decline marks the document as outside the common grammar, e.g. an
// object member the caller does not know.
func (s *Scanner) Decline() { s.declined = true }

// Done reports whether the document was scanned to its end without a
// decline: only whitespace may remain.
func (s *Scanner) Done() bool {
	s.skipSpace()
	return !s.declined && s.i == len(s.b)
}

// Array scans the array at the cursor, calling elem once per element;
// elem must consume exactly one value or decline.
func (s *Scanner) Array(elem func()) {
	if !s.expect('[') || s.consume(']') {
		return
	}
	for !s.declined {
		elem()
		if !s.consume(',') {
			s.expect(']')
			return
		}
	}
}

// Members scans the object at the cursor as a struct whose member names
// are names (at most 64), calling member once per member with its name;
// member must consume the value or decline. A key that matches none of
// names exactly, a case-variant included, or one the object already
// had declines: encoding/json matches keys case-insensitively and lets
// a repeated member overwrite or merge into the first, and the caller
// leaves both to Strict.
func (s *Scanner) Members(names []string, member func(name string)) {
	if !s.expect('{') || s.consume('}') {
		return
	}
	var seen uint64
	for !s.declined {
		key := s.key()
		if !s.expect(':') {
			return
		}
		i := 0
		for i < len(names) && string(key) != names[i] {
			i++
		}
		if i == len(names) || seen&(1<<i) != 0 {
			s.declined = true
			return
		}
		seen |= 1 << i
		member(names[i])
		if !s.consume(',') {
			s.expect('}')
			return
		}
	}
}

// Text scans a string value of printable ASCII without escapes; any
// other string, or a value that is not a string, declines.
func (s *Scanner) Text() string { return string(s.key()) }

// Bool scans true or false; anything else declines.
func (s *Scanner) Bool() bool {
	s.skipSpace()
	rest := s.b[s.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += len("true")
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += len("false")
		return false
	}
	s.declined = true
	return false
}

// Float scans a number into a float64 with strconv.ParseFloat, as
// encoding/json does; a literal out of float64 range declines.
func (s *Scanner) Float() float64 {
	lit := s.number()
	if s.declined {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.declined = true
	}
	return f
}

// Int scans a number into an int with strconv.Atoi; a fraction, an
// exponent or an out-of-range literal declines.
func (s *Scanner) Int() int {
	lit := s.number()
	if s.declined {
		return 0
	}
	n, err := strconv.Atoi(string(lit))
	if err != nil {
		s.declined = true
	}
	return n
}

// Uint scans a number into a uint64 with strconv.ParseUint, as
// encoding/json does for a uint64 field; a sign, a fraction, an
// exponent or an out-of-range literal declines.
func (s *Scanner) Uint() uint64 {
	lit := s.number()
	if s.declined {
		return 0
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		s.declined = true
	}
	return n
}

// CapHint sizes the slice for an array of flat objects in b: the number
// of '{' bytes, which is exact when b is the array's own bytes and the
// Scanner accepts it (keys hold no braces and values are numbers). It
// is capped at len(b)/minObject, minObject being the length of the
// shortest element that can pass validation, so that braces inside the
// strings of a document the Scanner will decline cannot reserve more
// memory than the document's own size.
func CapHint(b []byte, minObject int) int {
	return min(bytes.Count(b, []byte{'{'}), len(b)/minObject)
}

// ArrayCap is CapHint over the array at the cursor, which it reads up to
// the first ']': the array's own bytes when its elements are flat
// objects with number values, so braces later in a larger document do
// not count.
func (s *Scanner) ArrayCap(minObject int) int {
	s.skipSpace()
	rest := s.b[s.i:]
	if end := bytes.IndexByte(rest, ']'); end >= 0 {
		rest = rest[:end]
	}
	return CapHint(rest, minObject)
}

// Strict is the reference decode: encoding/json into v with unknown
// fields rejected at every depth of v's plain struct types and
// trailing data rejected, so typos and concatenated documents fail
// loudly instead of silently meaning something else.
func Strict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON document")
	}
	return nil
}

func (s *Scanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and consumes c if it is the next byte.
func (s *Scanner) consume(c byte) bool {
	s.skipSpace()
	if s.declined || s.i == len(s.b) || s.b[s.i] != c {
		return false
	}
	s.i++
	return true
}

// expect consumes c or declines, and reports whether the scan goes on.
func (s *Scanner) expect(c byte) bool {
	if !s.consume(c) {
		s.declined = true
	}
	return !s.declined
}

// key scans a string of printable ASCII without escapes: an object key
// or a string value.
func (s *Scanner) key() []byte {
	if !s.expect('"') {
		return nil
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			k := s.b[s.i:j]
			s.i = j + 1
			return k
		case c == '\\' || c < 0x20 || c >= 0x80:
			s.declined = true
			return nil
		}
	}
	s.declined = true
	return nil
}

// number scans an RFC 8259 number literal:
// -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
func (s *Scanner) number() []byte {
	s.skipSpace()
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		s.declined = true
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			s.declined = true
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			s.declined = true
			return nil
		}
		i = j
	}
	s.i = i
	return b[start:i]
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
