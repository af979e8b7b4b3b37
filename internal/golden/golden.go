// Package golden is the one harness of the repository's golden tests:
// tests that pin an answer byte for byte. It runs the answer's producer
// at parallelism 1 and 8 and fails where the two differ, on every
// build; then, where Unpinned is "", it compares the bytes with their
// pin, a committed SHA-256 digest or a committed file. Tests alone
// import it; CI keeps it out of shipped binaries.
//
// A mismatch prints the new digest, or the first line that differs from
// the file, and rewrites nothing: a change that moves answers on
// purpose records the new pin by hand and says why in its change notes.
package golden

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
)

// Unpinned says why pins are not compared on this build, or "" where
// they are: on amd64 at GOAMD64 v1 or v2, where they were recorded.
// Elsewhere Go may fuse multiply-adds, which moves float bits. Measured
// on Go 1.24: arm64 fuses at about 17 of the repository's source lines
// and inside math.Log1p, Expm1, Log and Pow; amd64 at GOAMD64=v3 fuses
// none, and every pin also holds there and under GODEBUG=cpu.fma=off,
// which switches math.Exp's FMA path off.
func Unpinned() string {
	level := "v1"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				level = s.Value
			}
		}
	}
	if runtime.GOARCH != "amd64" || (level != "v1" && level != "v2") {
		return fmt.Sprintf("pins are recorded on amd64 at GOAMD64 v1/v2; on Go 1.24 arm64 fuses multiply-adds "+
			"in this module and in math (v3 and GODEBUG=cpu.fma=off were measured to hold); this build is %s/%s",
			runtime.GOARCH, level)
	}
	return ""
}

// Sum returns the hex SHA-256 of b.
func Sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// A Pin is the committed form of one output: its SHA-256 digest or a
// file that holds its bytes.
type Pin struct{ sum, file string }

// Digest pins an output by the hex SHA-256 of its bytes.
func Digest(sum string) Pin { return Pin{sum: sum} }

// File pins an output by the committed file at path.
func File(path string) Pin { return Pin{file: path} }

// Bytes is Outputs for one output, pinned by pin.
func Bytes(t testing.TB, what string, pin Pin, produce func(parallelism int) []byte) []byte {
	t.Helper()
	return Outputs(t, map[string]Pin{what: pin}, func(parallelism int) map[string][]byte {
		return map[string][]byte{what: produce(parallelism)}
	})[what]
}

// Outputs runs produce at parallelism 1 and 8 and fails t for every
// output that differs between the two, naming its first differing
// line, and for every output without a pin or pin without an output.
// Where Unpinned is "", it then compares each output with its pin. It
// returns the outputs at parallelism 1, so that the test can check that
// they still exercise what they pin.
func Outputs(t testing.TB, pins map[string]Pin, produce func(parallelism int) map[string][]byte) map[string][]byte {
	t.Helper()
	return check(t, Unpinned(), pins, produce)
}

// check is Outputs with the reason the pins are skipped, "" for none.
func check(t testing.TB, unpinned string, pins map[string]Pin, produce func(parallelism int) map[string][]byte) map[string][]byte {
	t.Helper()
	seq, par := produce(1), produce(8)
	names := slices.Concat(slices.Collect(maps.Keys(seq)), slices.Collect(maps.Keys(par)), slices.Collect(maps.Keys(pins)))
	slices.Sort(names)
	for _, name := range slices.Compact(names) {
		got, atSeq := seq[name]
		atPar, inPar := par[name]
		pin, pinned := pins[name]
		switch {
		case !atSeq || !inPar || !pinned:
			t.Errorf("%s: produced at parallelism 1: %v, at 8: %v; pinned: %v (digest %s)", name, atSeq, inPar, pinned, Sum(got))
			continue
		case !bytes.Equal(got, atPar):
			t.Errorf("%s: differs between parallelism 1 and 8 %s", name, firstDiff(got, atPar, "P=1", "P=8"))
		}
		if unpinned != "" {
			continue
		}
		if pin.file == "" {
			if sum := Sum(got); sum != pin.sum {
				t.Errorf("%s: digest %s, golden %s", name, sum, pin.sum)
			}
		} else if want, err := os.ReadFile(pin.file); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: differs from %s %s", name, pin.file, firstDiff(got, want, "got", "want"))
		}
	}
	if unpinned != "" {
		t.Logf("parallelism 1 and 8 compared; pins not compared: %s", unpinned)
	}
	return seq
}

// firstDiff names the first line where a and b differ and quotes both
// sides of it from a little before the first differing byte.
func firstDiff(a, b []byte, nameA, nameB string) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	start := max(bytes.LastIndexByte(a[:i], '\n')+1, i-40)
	clip := func(s []byte) []byte {
		s, _, _ = bytes.Cut(s[start:], []byte{'\n'})
		return s[:min(len(s), 120)]
	}
	return fmt.Sprintf("at line %d, byte %d:\n\t%s: %q\n\t%s: %q",
		bytes.Count(a[:i], []byte{'\n'})+1, i, nameA, clip(a), nameB, clip(b))
}
