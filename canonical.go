package relpipe

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Canonical returns a stable SHA-256 hex digest of the instance. Two
// instances have equal digests iff their chains and platforms are
// bit-for-bit identical: the digest hashes the IEEE-754 bits of every
// float (so it is independent of JSON formatting, field order in the
// source document or decimal rounding, and tells -0 from +0), and the
// task and processor arrays are length-prefixed so no value can shift
// across the boundary between them. The solver service keys its result
// cache, in-flight deduplication and cluster routing on this digest.
func (in Instance) Canonical() string {
	pl := in.Platform
	// Every field is one 8-byte word: two length prefixes, two per
	// task, two per processor and three platform scalars. Instances up
	// to the stack buffer hash without a heap allocation.
	var stack [1024]byte
	b := stack[:0]
	if n := 8 * (5 + 2*len(in.Chain) + 2*len(pl.Procs)); n > len(stack) {
		b = make([]byte, 0, n)
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(in.Chain)))
	for _, t := range in.Chain {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Work))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(t.Out))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(pl.Procs)))
	for _, p := range pl.Procs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Speed))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.FailRate))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(pl.Bandwidth))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(pl.LinkFailRate))
	b = binary.LittleEndian.AppendUint64(b, uint64(pl.MaxReplicas))
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}
