// Command docscheck is the CI documentation gate (wired into the lint
// stage): it walks every markdown file in the repository and verifies
// that relative links resolve to existing files, it verifies that every
// markdown document a Go comment cites by name exists, it asserts that every
// internal/* package carries a package comment (the doc.go overviews),
// so `go doc` stays useful across the tree, and it reports every
// exported top-level function of a shipped internal/* package that no
// non-test Go file references: such a function is dead code or a test
// helper, and belongs in a test file.
//
// Usage:
//
//	docscheck [-root .]
//
// External (http/https/mailto) links are not fetched — CI must not
// depend on third-party uptime — and intra-document #anchors are not
// resolved, only the file part of a link is checked. Exit status is
// non-zero with one line per finding when anything is broken.
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

func main() {
	fs := flag.NewFlagSet("docscheck", flag.ExitOnError)
	root := fs.String("root", ".", "repository root to check")
	fs.Parse(os.Args[1:])
	findings, err := run(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		os.Exit(1)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// run executes every check and returns one line per finding.
func run(root string) ([]string, error) {
	var findings []string
	links, err := checkMarkdownLinks(root)
	if err != nil {
		return nil, err
	}
	findings = append(findings, links...)
	cited, err := checkCommentDocs(root)
	if err != nil {
		return nil, err
	}
	findings = append(findings, cited...)
	comments, err := checkPackageComments(root)
	if err != nil {
		return nil, err
	}
	findings = append(findings, comments...)
	unused, err := checkUnusedExports(root)
	if err != nil {
		return nil, err
	}
	return append(findings, unused...), nil
}

// mdLink matches inline markdown links and images: [text](target).
// Reference-style links are rare in this repository and not matched.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// checkMarkdownLinks verifies that the file part of every relative link
// in every *.md file exists on disk.
func checkMarkdownLinks(root string) ([]string, error) {
	var findings []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Skip VCS internals and generated result trees.
			switch d.Name() {
			case ".git", "results":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for ln, line := range strings.Split(string(b), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if isExternal(target) || strings.HasPrefix(target, "#") {
					continue
				}
				// Strip an anchor; only the file must exist.
				if i := strings.IndexByte(target, '#'); i >= 0 {
					target = target[:i]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), target)
				if _, err := os.Stat(resolved); err != nil {
					findings = append(findings,
						fmt.Sprintf("%s:%d: broken link %q (no file %s)", path, ln+1, m[1], resolved))
				}
			}
		}
		return nil
	})
	return findings, err
}

// docName matches a cited document: an upper-case name with the .md
// suffix, the repository's convention for its documents, optionally
// behind a relative path. Lower-case names, such as an output file
// report.md, are not citations.
var docName = regexp.MustCompile(`(?:[\w.-]+/)*[A-Z][A-Z0-9_-]*\.md\b`)

// checkCommentDocs verifies that every document cited in a Go comment
// resolves from the repository root or from the citing file's
// directory.
func checkCommentDocs(root string) ([]string, error) {
	var findings []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "results", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		for _, group := range f.Comments {
			for _, c := range group.List {
				for _, name := range docName.FindAllString(c.Text, -1) {
					if exists(filepath.Join(root, name)) || exists(filepath.Join(filepath.Dir(path), name)) {
						continue
					}
					findings = append(findings, fmt.Sprintf("%s:%d: comment cites %s, which exists neither at the repository root nor beside the file",
						path, fset.Position(c.Pos()).Line, name))
				}
			}
		}
		return nil
	})
	return findings, err
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func isExternal(target string) bool {
	return strings.HasPrefix(target, "http://") ||
		strings.HasPrefix(target, "https://") ||
		strings.HasPrefix(target, "mailto:")
}

// checkPackageComments asserts every internal/* package has a package
// comment on at least one of its files (test files don't count).
func checkPackageComments(root string) ([]string, error) {
	dirs, err := filepath.Glob(filepath.Join(root, "internal", "*"))
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, dir := range dirs {
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			continue
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", dir, err)
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				findings = append(findings,
					fmt.Sprintf("%s: package %s has no package comment (add a doc.go overview)", dir, name))
			}
		}
	}
	return findings, nil
}

// oracleDirs are the test-only reference packages (the CI oracle guard
// keeps them out of shipped binaries): their exports serve tests alone.
var oracleDirs = []string{"internal/sim/simref", "internal/exact/exactref", "internal/rbd", "internal/reduction"}

// shipped reports whether the package in dir (slash-separated, relative
// to the root) is an internal package that ships in binaries.
func shipped(dir string) bool {
	if !strings.HasPrefix(dir+"/", "internal/") {
		return false
	}
	for _, o := range oracleDirs {
		if dir == o || strings.HasPrefix(dir, o+"/") {
			return false
		}
	}
	return true
}

// sharedTestHelpers are exported functions, keyed dir.Name, that only
// tests call, but the tests of several packages, so that no one test
// file can hold them.
var sharedTestHelpers = map[string]bool{
	// Enumerates the partitions of one interval count for the tests of
	// alloc, dp, exactref, interval, mapping, rbd and sched.
	"internal/interval.VisitM": true,
}

// funcRef names a top-level function by its package import path.
type funcRef struct{ pkg, name string }

// checkUnusedExports reports every exported top-level function (methods
// are not checked) of a shipped internal/* package that no non-test .go
// file under root references outside its own declaration. The check is
// syntactic: a pkg.Name selector through an import counts, and so does
// any bare Name inside the declaring package, which may over-count but
// never reports a function in use.
func checkUnusedExports(root string) ([]string, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	type decl struct {
		ref funcRef
		pos string
	}
	var decls []decl
	used := map[funcRef]bool{}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "results", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		pkg := module + "/" + rel
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		imports := map[string]string{} // local name -> import path
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndexByte(p, '/')+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		for _, dl := range f.Decls {
			// Neither a declared name nor a recursive call inside the
			// function's own body is a reference.
			var name *ast.Ident
			self := ""
			if fd, ok := dl.(*ast.FuncDecl); ok {
				name = fd.Name
				if fd.Recv == nil {
					self = fd.Name.Name
					if fd.Name.IsExported() && shipped(rel) && !sharedTestHelpers[rel+"."+self] {
						decls = append(decls, decl{funcRef{pkg, self}, fmt.Sprintf("%s:%d", path, fset.Position(fd.Pos()).Line)})
					}
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if p, ok := imports[x.Name]; ok {
							used[funcRef{p, n.Sel.Name}] = true
							return false
						}
					}
					// A field or method name is no function reference.
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if n != name && n.Name != self {
						used[funcRef{pkg, n.Name}] = true
					}
				}
				return true
			}
			ast.Inspect(dl, visit)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var findings []string
	for _, d := range decls {
		if !used[d.ref] {
			findings = append(findings, fmt.Sprintf("%s: exported function %s.%s is referenced by no non-test file (move it into a test file or delete it)",
				d.pos, d.ref.pkg[strings.LastIndexByte(d.ref.pkg, '/')+1:], d.ref.name))
		}
	}
	return findings, nil
}

// modulePath reads the module path from root's go.mod. A tree without
// one has no importable packages, only in-package references.
func modulePath(root string) (string, error) {
	b, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if errors.Is(err, fs.ErrNotExist) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod declares no module", root)
}
