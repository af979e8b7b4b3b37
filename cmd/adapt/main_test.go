// Package adapt holds the end-to-end tests of "relpipe adapt", which
// replaced the adapt command. They run the built relpipe binary.
package adapt

import (
	"strings"
	"testing"

	"relpipe/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m) }

// adapt runs relpipe adapt on the instance at path.
func adapt(t *testing.T, path string, args ...string) (int, string, string) {
	t.Helper()
	return clitest.Run(t, append([]string{"adapt", "-instance", path}, args...)...)
}

func TestComparisonTable(t *testing.T) {
	path := clitest.WriteInstance(t, t.TempDir(), 5)
	code, got, stderr := adapt(t, path, "-policy", "all", "-horizon", "1000", "-replications", "8",
		"-spares", "2", "-sparecost", "1", "-lifescale", "1e5", "-restarts", "1", "-budget", "200")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"static mapping", "policy", "missionRel", "remap", "spares", "greedy", "none"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
	// One table row per policy, in comparison order.
	if strings.Index(got, "remap") > strings.Index(got, "\nnone") {
		t.Fatalf("policies out of order:\n%s", got)
	}
}

func TestSinglePolicyWithTrace(t *testing.T) {
	path := clitest.WriteInstance(t, t.TempDir(), 5)
	code, got, stderr := adapt(t, path, "-policy", "greedy", "-horizon", "1000", "-replications", "4",
		"-spares", "0", "-lifescale", "1e5", "-restarts", "1", "-budget", "200", "-parallel", "1", "-trace")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(got, "trace (greedy") {
		t.Fatalf("missing trace:\n%s", got)
	}
	if strings.Contains(got, "remap") {
		t.Fatalf("single-policy run printed other policies:\n%s", got)
	}
}

func TestSeedZeroMatchesSeedOne(t *testing.T) {
	path := clitest.WriteInstance(t, t.TempDir(), 5)
	render := func(seed string) string {
		code, s, stderr := adapt(t, path, "-policy", "spares", "-horizon", "500", "-replications", "4",
			"-spares", "2", "-lifescale", "1e5", "-restarts", "1", "-budget", "100", "-seed", seed, "-parallel", "1")
		if code != 0 {
			t.Fatalf("-seed %s: exit %d: %s", seed, code, stderr)
		}
		// The header echoes the seed; compare only the table.
		return s[strings.Index(s, "policy"):]
	}
	if render("0") != render("1") {
		t.Fatal("-seed 0 does not alias -seed 1")
	}
}

func TestRunErrors(t *testing.T) {
	path := clitest.WriteInstance(t, t.TempDir(), 5)
	for _, c := range []struct {
		what string
		args []string
	}{
		{"missing instance", []string{"adapt", "-replications", "4"}},
		{"bogus policy", []string{"adapt", "-instance", path, "-policy", "bogus"}},
		{"bogus method", []string{"adapt", "-instance", path, "-method", "bogus"}},
		{"negative horizon", []string{"adapt", "-instance", path, "-horizon", "-5"}},
	} {
		if code, _, stderr := clitest.Run(t, c.args...); code != 1 {
			t.Errorf("%s accepted: exit %d: %s", c.what, code, stderr)
		}
	}
}
