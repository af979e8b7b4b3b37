// Package jsonscan decodes the service's request documents — every
// /v1 solve kind, the instance arrays of the paper's model (the
// chain's (work, out) tasks and the platform's (speed, failRate)
// processors) included — in one pass over the bytes, without
// reflection.
//
// The Scanner covers the grammar the request types use and nothing
// more:
//   - objects whose members are known by name (Members), each name
//     matched exactly and at most once, members in any order or absent;
//   - arrays (Array);
//   - RFC 8259 number literals, read as float64 (Float), int (Int) or
//     uint64 (Uint) with strconv, as encoding/json reads them;
//   - strings of printable ASCII without escapes (Text);
//   - true and false (Bool);
//   - whitespace.
//
// It never rejects a document. Anything outside that grammar — an
// escape, a non-ASCII byte, null, an unknown, case-variant or repeated
// member, a number out of its field's range, a syntax error, trailing
// data — makes it decline, and the caller hands the same bytes to
// Strict, the encoding/json reference decode with unknown fields and
// trailing data rejected. Strict is therefore the only source of
// decode errors and their messages, and it is the oracle the fast path
// is fuzzed against: on every document both accept, they agree on
// every field, floats by their bits.
//
// Key entry points: Scanner (New, Members, Array, Float, Int, Uint,
// Text, Bool, ArrayCap, Decline, Done), CapHint and Strict.
package jsonscan
