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

// TestUnusedExportReported: an exported function of a shipped internal
// package is a finding when only its own declaration, a test file, a
// recursive call in its body or a method of the same name mention it. A
// call through an import, a bare call in the package, a method, an
// unexported function and the oracle packages are not.
func TestUnusedExportReported(t *testing.T) {
	root := t.TempDir()
	write(t, root, "go.mod", "module m\n\ngo 1.24\n")
	write(t, root, "internal/a/doc.go", "// Package a does a.\npackage a\n")
	write(t, root, "internal/a/a.go", `package a

type T struct{}

func (T) Method() {}

func (T) Shadowed() {}

func helper() int { T{}.Shadowed(); return Local() }

func Local() int { return 1 }

func Imported() int { return 2 }

func Dead() int { return 3 }

func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

func TestOnly() int { return 4 }

func Shadowed() int { return 5 }
`)
	write(t, root, "internal/a/a_test.go", "package a\n\nvar _ = TestOnly()\n")
	write(t, root, "cmd/x/main.go", "package main\n\nimport \"m/internal/a\"\n\nfunc main() { _ = a.Imported(); _ = a.T{} }\n")
	write(t, root, "internal/rbd/doc.go", "// Package rbd is an oracle.\npackage rbd\n\nfunc Oracle() {}\n")
	findings, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f[strings.Index(f, "function ")+len("function "):strings.Index(f, " is referenced")])
	}
	if strings.Join(got, " ") != "a.Dead a.Recursive a.TestOnly a.Shadowed" {
		t.Fatalf("findings = %v, want a.Dead, a.Recursive, a.TestOnly and a.Shadowed", findings)
	}
}

// TestUnsetOptionReported: an exported Options or Config field of a
// shipped internal package is a finding when only its own package or a
// test sets it. A keyed literal elsewhere (also through an alias in the
// root package and through a slice literal's elided element type), an
// assignment, an address taken, a clock.Clock field, an unexported
// field and the oracle packages are not.
func TestUnsetOptionReported(t *testing.T) {
	root := t.TempDir()
	write(t, root, "go.mod", "module m\n\ngo 1.24\n")
	write(t, root, "alias.go", "// Package m re-exports a.\npackage m\n\nimport \"m/internal/a\"\n\ntype AOptions = a.Options\n\nvar _ = AOptions{ViaAlias: 1}\n")
	write(t, root, "internal/clock/doc.go", "// Package clock tells time.\npackage clock\n\ntype Clock interface{}\n")
	write(t, root, "internal/a/doc.go", "// Package a does a.\npackage a\n")
	write(t, root, "internal/a/a.go", `package a

import "m/internal/clock"

type Options struct {
	Keyed, ViaAlias, Assigned int
	InPackage                 int
	TestOnly                  int
	Clock                     clock.Clock
	hidden                    int
}

type Config struct{ Unset int }

var _ = Options{InPackage: 1, hidden: 2}
`)
	write(t, root, "internal/a/a_test.go", "package a\n\nvar _ = Options{TestOnly: 1}\n")
	write(t, root, "cmd/x/main.go", `package main

import "m/internal/a"

func main() {
	o := a.Options{Keyed: 1}
	o.Assigned = 2
}
`)
	write(t, root, "internal/rbd/doc.go", "// Package rbd is an oracle.\npackage rbd\n\ntype Options struct{ Never int }\n")
	findings, err := run(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f[strings.Index(f, "field ")+len("field "):strings.Index(f, " is set")])
	}
	if strings.Join(got, " ") != "a.Config.Unset a.Options.InPackage a.Options.TestOnly" {
		t.Fatalf("findings = %v, want a.Config.Unset, a.Options.InPackage and a.Options.TestOnly", findings)
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
