// Package jsonscan decodes the instance arrays of the paper's model —
// the chain's (work, out) tasks and the platform's (speed, failRate)
// processors — in one pass over the document, without reflection.
//
// The Scanner covers the common grammar only: objects and arrays,
// ASCII keys matched exactly, RFC 8259 number literals and whitespace.
// It never rejects a document. Anything outside that grammar — an
// escape, a non-ASCII or case-variant key, null, a string value, a
// repeated array, a syntax error — makes it decline, and the caller
// hands the same bytes to Strict, the encoding/json reference decode
// with unknown fields and trailing data rejected. Strict is therefore
// the only source of decode errors and their messages, and it is the
// oracle the fast path is fuzzed against: on every document both
// accept, they agree on every float bit.
//
// Key entry points: Scanner (New, Array, Object, Float, Int, Decline,
// Done), CapHint and Strict.
package jsonscan
