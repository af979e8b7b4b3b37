// Package simulate holds the end-to-end tests of "relpipe simulate",
// which replaced the simulate command. They run the built relpipe
// binary.
package simulate

import (
	"os"
	"strings"
	"testing"

	"relpipe/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m) }

func TestRunEndToEnd(t *testing.T) {
	path := clitest.WriteInstance(t, t.TempDir(), 5)
	code, stdout, stderr := clitest.Run(t, "simulate", "-instance", path, "-period", "200",
		"-datasets", "2000", "-scale", "1e5")
	if code != 0 || stdout == "" {
		t.Fatalf("exit %d, stdout %q: %s", code, stdout, stderr)
	}
}

func TestRunErrors(t *testing.T) {
	path := clitest.WriteInstance(t, t.TempDir(), 5)
	for _, c := range []struct {
		what string
		args []string
	}{
		{"missing instance", []string{"simulate", "-datasets", "100"}},
		{"missing file", []string{"simulate", "-instance", "/nonexistent.json"}},
		{"bogus method", []string{"simulate", "-instance", path, "-method", "bogus"}},
		{"infeasible bounds", []string{"simulate", "-instance", path, "-period", "0.001"}},
	} {
		if code, _, stderr := clitest.Run(t, c.args...); code != 1 {
			t.Errorf("%s accepted: exit %d: %s", c.what, code, stderr)
		}
	}
}

// TestSeedZeroAliasesDefaultSeed pins the repo-wide seed convention at
// the CLI layer: `-seed 0` and the default `-seed 1` print identical
// results, single-run and batched.
func TestSeedZeroAliasesDefaultSeed(t *testing.T) {
	path := clitest.WriteInstance(t, t.TempDir(), 5)
	render := func(seed, reps string) string {
		code, stdout, stderr := clitest.Run(t, "simulate", "-instance", path, "-period", "200",
			"-datasets", "500", "-scale", "1e5", "-seed", seed, "-reps", reps, "-parallel", "1")
		if code != 0 {
			t.Fatalf("-seed %s -reps %s: exit %d: %s", seed, reps, code, stderr)
		}
		return stdout
	}
	for _, reps := range []string{"1", "4"} {
		if got0, got1 := render("0", reps), render("1", reps); got0 != got1 {
			t.Fatalf("reps=%s: -seed 0 output differs from -seed 1:\n%s\nvs\n%s", reps, got0, got1)
		}
	}
}

// TestRunFullStdout: a simulation whose stdout cannot be written exits
// 1 and says why.
func TestRunFullStdout(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skip("no /dev/full")
	}
	defer full.Close()
	code, stderr := clitest.RunTo(t, full, "simulate", "-instance", clitest.WriteInstance(t, t.TempDir(), 5), "-datasets", "100")
	if code != 1 || !strings.HasPrefix(stderr, "relpipe simulate: ") || !strings.Contains(stderr, "no space left") {
		t.Errorf("exit %d: %s", code, stderr)
	}
}
