package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write creates path (and parents) with content.
func write(t *testing.T, root, path, content string) {
	t.Helper()
	full := filepath.Join(root, path)
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCleanTreePasses(t *testing.T) {
	root := t.TempDir()
	write(t, root, "README.md", "see [design](DESIGN.md) and [pkg](internal/x/doc.go), plus [web](https://example.com) and [anchor](#local)\n")
	write(t, root, "DESIGN.md", "back to [readme](README.md#intro)\n")
	write(t, root, "internal/x/doc.go", "// Package x does x.\npackage x\n")
	findings, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("findings = %v, want none", findings)
	}
}

func TestBrokenLinkReported(t *testing.T) {
	root := t.TempDir()
	write(t, root, "README.md", "see [missing](NOPE.md)\n")
	findings, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "NOPE.md") {
		t.Fatalf("findings = %v", findings)
	}
}

// TestCommentCitationReported: a Go comment citing a document that
// exists neither at the root nor beside the file is a finding; one
// resolving from either place, and a lower-case file name, are not.
func TestCommentCitationReported(t *testing.T) {
	root := t.TempDir()
	write(t, root, "DESIGN.md", "design\n")
	write(t, root, "cmd/x/NOTES.md", "notes\n")
	write(t, root, "cmd/x/main.go", "// Command x: see DESIGN.md, NOTES.md and\n// EXPERIMENTS.md; it writes report.md.\npackage main\n")
	findings, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "EXPERIMENTS.md") || !strings.Contains(findings[0], "main.go:2") {
		t.Fatalf("findings = %v", findings)
	}
}

func TestUndocumentedPackageReported(t *testing.T) {
	root := t.TempDir()
	write(t, root, "internal/y/y.go", "package y\n")
	findings, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0], "package y") {
		t.Fatalf("findings = %v", findings)
	}
}

// TestRepositoryIsClean runs the gate against the real repository (two
// levels up), so `go test ./...` catches a broken link or an
// undocumented package before CI does.
func TestRepositoryIsClean(t *testing.T) {
	findings, err := run("../..")
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("repository docs findings:\n%s", strings.Join(findings, "\n"))
	}
}
