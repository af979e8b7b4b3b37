// Package golden holds the helpers of the repository's SHA-256 golden
// tests: the build check under which a committed float digest is known
// to hold, and the digest compare. Tests alone import it; CI keeps it
// out of shipped binaries.
//
// A mismatch prints the new digest and rewrites nothing: a change that
// moves answers on purpose records the new digest by hand and says why
// in its change notes.
package golden

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
)

// Unpinned says why committed digests are not checked on this build,
// or "" where they are: on amd64 at GOAMD64 v1 or v2, where they were
// recorded. Elsewhere Go may fuse multiply-adds, which moves float
// bits. Measured on Go 1.24: arm64 fuses at about 17 of the
// repository's source lines and inside math.Log1p, Expm1, Log and Pow;
// amd64 at GOAMD64=v3 fuses none, and every digest also holds there and
// under GODEBUG=cpu.fma=off, which switches math.Exp's FMA path off.
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
		return fmt.Sprintf("digests are recorded on amd64 at GOAMD64 v1/v2; on Go 1.24 arm64 fuses multiply-adds "+
			"in this module and in math (v3 and GODEBUG=cpu.fma=off were measured to hold); this build is %s/%s",
			runtime.GOARCH, level)
	}
	return ""
}

// SkipOffArch skips t where Unpinned is not "".
func SkipOffArch(t testing.TB) {
	t.Helper()
	if why := Unpinned(); why != "" {
		t.Skip(why)
	}
}

// Sum returns the hex SHA-256 of b.
func Sum(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// Check fails t, printing the new digest, where got is not the golden
// digest want of what.
func Check(t testing.TB, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s: digest %s, golden %s", what, got, want)
	}
}
