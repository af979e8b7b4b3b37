// Package report holds the end-to-end tests of "relpipe report", which
// replaced the report command. They run the built relpipe binary.
package report

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"relpipe/internal/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m) }

func TestRunWritesReport(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "report.md")
	code, _, stderr := clitest.Run(t, "report", "-instance", clitest.WriteInstance(t, dir, 11),
		"-period", "250", "-latency", "800", "-method", "exact", "-simulate", "1000", "-o", outPath)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "# Dependability report") {
		t.Fatalf("report missing header:\n%s", b)
	}
	if !strings.Contains(string(b), "Monte-Carlo") {
		t.Fatal("simulation section missing")
	}
}

func TestRunErrors(t *testing.T) {
	path := clitest.WriteInstance(t, t.TempDir(), 11)
	if code, _, stderr := clitest.Run(t, "report", "-o", "-"); code != 1 {
		t.Errorf("missing instance accepted: exit %d: %s", code, stderr)
	}
	if code, _, stderr := clitest.Run(t, "report", "-instance", path, "-method", "bogus", "-o", "-"); code != 1 {
		t.Errorf("bogus method accepted: exit %d: %s", code, stderr)
	}
}
