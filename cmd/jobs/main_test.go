// Package jobs holds the end-to-end tests of "relpipe jobs", which
// replaced the jobs command. They run the built relpipe binary.
package jobs

import (
	"testing"

	"relpipe/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m) }

func TestCLIUnknownCommandAndMissingFlags(t *testing.T) {
	for _, args := range [][]string{{"bogus"}, {"submit"}, {"status"}} {
		if code, _, stderr := clitest.Run(t, append([]string{"jobs"}, args...)...); code != 1 {
			t.Errorf("jobs %q: exit %d, want 1: %s", args, code, stderr)
		}
	}
}
