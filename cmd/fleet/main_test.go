// Package fleet holds the end-to-end tests of "relpipe fleet", which
// replaced the fleet command. They run the built relpipe binary.
package fleet

import (
	"testing"

	"relpipe/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m) }

func TestCLIErrors(t *testing.T) {
	url, _ := clitest.StartService(t)
	for _, c := range []struct {
		what string
		args []string
	}{
		{"missing status", []string{"status", "missing"}},
		{"eventless feed", []string{"feed", "x"}},
		{"unknown command", []string{"bogus"}},
		{"fileless register", []string{"register"}},
	} {
		if code, _, stderr := clitest.Run(t, append([]string{"fleet", "-addr", url}, c.args...)...); code != 1 {
			t.Errorf("%s: exit %d, want 1: %s", c.what, code, stderr)
		}
	}
}
