// Package frontier holds the end-to-end tests of "relpipe frontier",
// which replaced the frontier command. They run the built relpipe
// binary.
package frontier

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relpipe/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m) }

// frontierCSV runs relpipe frontier with args on a seeded instance and
// returns the CSV file it writes.
func frontierCSV(t *testing.T, args ...string) string {
	t.Helper()
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "front.csv")
	args = append([]string{"frontier", "-instance", clitest.WriteInstance(t, dir, 9), "-csv", csvPath}, args...)
	if code, _, stderr := clitest.Run(t, args...); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	b, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunWritesCSV(t *testing.T) {
	b := frontierCSV(t, "-method", "auto", "-floor", "0.999", "-parallel", "2")
	lines := strings.Split(strings.TrimSpace(b), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "period,latency,failProb") {
		t.Fatalf("unexpected CSV:\n%s", b)
	}
}

// TestRunHeuristicMethod drives the search-approximation path end to
// end on an instance the exact enumeration also handles.
func TestRunHeuristicMethod(t *testing.T) {
	b := frontierCSV(t, "-method", "heuristic", "-restarts", "2", "-budget", "300", "-seed", "1")
	if !strings.HasPrefix(b, "period,latency,failProb") {
		t.Fatalf("unexpected CSV:\n%s", b)
	}
}

func TestRunErrors(t *testing.T) {
	path := clitest.WriteInstance(t, t.TempDir(), 9)
	for _, c := range []struct {
		what string
		args []string
	}{
		{"missing instance", []string{"frontier"}},
		{"missing file", []string{"frontier", "-instance", "/nonexistent.json"}},
		{"unknown method", []string{"frontier", "-instance", path, "-method", "nope"}},
	} {
		if code, _, stderr := clitest.Run(t, c.args...); code != 1 {
			t.Errorf("%s accepted: exit %d: %s", c.what, code, stderr)
		}
	}
}
