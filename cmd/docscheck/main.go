// Command docscheck is the CI documentation gate (wired into the lint
// stage): it walks every markdown file in the repository and verifies
// that relative links resolve to existing files, it verifies that every
// markdown document a Go comment cites by name exists, it asserts that every
// internal/* package carries a package comment (the doc.go overviews),
// so `go doc` stays useful across the tree, and it reports every
// exported top-level function of a shipped internal/* package that no
// non-test Go file references: such a function is dead code or a test
// helper, and belongs in a test file. It also reports every exported
// field of an exported Options or Config struct in such a package that
// no non-test Go file outside the package sets: a knob only tests turn.
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
	"slices"
	"sort"
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
	findings = append(findings, unused...)
	unset, err := checkUnsetOptions(root)
	if err != nil {
		return nil, err
	}
	return append(findings, unset...), nil
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

// oracleDirs are the test-only packages (the CI oracle guard keeps them
// out of shipped binaries): their exports serve tests alone.
var oracleDirs = []string{"internal/sim/simref", "internal/exact/exactref", "internal/rbd", "internal/reduction", "internal/golden", "internal/clitest"}

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

// goFile is one parsed non-test Go file of the tree.
type goFile struct {
	path    string // as walked
	dir     string // slash-separated, relative to the root
	pkg     string // import path of the file's package
	fset    *token.FileSet
	f       *ast.File
	imports map[string]string // local name -> import path
}

// walkGoFiles parses every non-test .go file under root (skipping VCS
// internals, result trees and testdata) and hands it to fn.
func walkGoFiles(root, module string, fn func(goFile)) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndexByte(p, '/')+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		pkg := module
		if rel != "." {
			pkg += "/" + rel
		}
		fn(goFile{path: path, dir: rel, pkg: pkg, fset: fset, f: f, imports: imports})
		return nil
	})
}

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
	err = walkGoFiles(root, module, func(gf goFile) {
		for _, dl := range gf.f.Decls {
			// Neither a declared name nor a recursive call inside the
			// function's own body is a reference.
			var name *ast.Ident
			self := ""
			if fd, ok := dl.(*ast.FuncDecl); ok {
				name = fd.Name
				if fd.Recv == nil {
					self = fd.Name.Name
					if fd.Name.IsExported() && shipped(gf.dir) && !sharedTestHelpers[gf.dir+"."+self] {
						decls = append(decls, decl{funcRef{gf.pkg, self}, fmt.Sprintf("%s:%d", gf.path, gf.fset.Position(fd.Pos()).Line)})
					}
				}
			}
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if p, ok := gf.imports[x.Name]; ok {
							used[funcRef{p, n.Sel.Name}] = true
							return false
						}
					}
					// A field or method name is no function reference.
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if n != name && n.Name != self {
						used[funcRef{gf.pkg, n.Name}] = true
					}
				}
				return true
			}
			ast.Inspect(dl, visit)
		}
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

// typeRef names a top-level type by its package import path.
type typeRef struct{ pkg, name string }

// optionField names one field of an Options or Config struct.
type optionField struct {
	typ   typeRef
	field string
}

// checkUnsetOptions reports every exported field of an exported Options
// or Config struct in a shipped internal/* package that no non-test .go
// file outside that package sets: such a field is a knob only tests
// turn, and belongs in a constant, a derived value or an unexported
// field. Fields of type clock.Clock are exempt, since they exist so
// that tests can inject a fake clock.
//
// The check is syntactic. A keyed literal sets the fields it names on
// the type it spells, through type aliases (the root package's
// AdaptOptions is adapt.Options). An assignment to x.F sets field F of
// every tracked type the file can name: one of a package it imports,
// or one that its own or an imported package aliases.
func checkUnsetOptions(root string) ([]string, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	clockType := typeRef{module + "/internal/clock", "Clock"}
	fields := map[optionField]string{} // -> declaring position
	aliases := map[typeRef]typeRef{}
	type keyed struct {
		typ        typeRef
		field, pkg string
	}
	var literals []keyed
	type write struct {
		field, pkg string
		imports    map[string]bool // import paths of the writing file
	}
	var writes []write
	err = walkGoFiles(root, module, func(gf goFile) {
		imported := map[string]bool{}
		for _, p := range gf.imports {
			imported[p] = true
		}
		var typeOf func(e ast.Expr) (typeRef, bool)
		typeOf = func(e ast.Expr) (typeRef, bool) {
			switch e := e.(type) {
			case *ast.Ident:
				return typeRef{gf.pkg, e.Name}, true
			case *ast.StarExpr:
				return typeOf(e.X)
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok {
					if p, ok := gf.imports[x.Name]; ok {
						return typeRef{p, e.Sel.Name}, true
					}
				}
			}
			return typeRef{}, false
		}
		ast.Inspect(gf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				if n.Assign.IsValid() {
					if t, ok := typeOf(n.Type); ok {
						aliases[typeRef{gf.pkg, n.Name.Name}] = t
					}
					return false
				}
				st, ok := n.Type.(*ast.StructType)
				if !ok || !shipped(gf.dir) || (n.Name.Name != "Options" && n.Name.Name != "Config") {
					return true
				}
				for _, fl := range st.Fields.List {
					if t, ok := typeOf(fl.Type); ok && t == clockType {
						continue
					}
					for _, name := range fl.Names {
						if name.IsExported() {
							fields[optionField{typeRef{gf.pkg, n.Name.Name}, name.Name}] = fmt.Sprintf("%s:%d", gf.path, gf.fset.Position(name.Pos()).Line)
						}
					}
				}
			case *ast.CompositeLit:
				t, ok := typeOf(n.Type)
				if !ok {
					return true
				}
				for _, el := range n.Elts {
					if kv, isKV := el.(*ast.KeyValueExpr); isKV {
						if key, isIdent := kv.Key.(*ast.Ident); isIdent {
							literals = append(literals, keyed{t, key.Name, gf.pkg})
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						writes = append(writes, write{sel.Sel.Name, gf.pkg, imported})
					}
				}
			}
			return true
		})
	})
	if err != nil {
		return nil, err
	}
	resolve := func(t typeRef) typeRef {
		for seen := 0; seen < len(aliases); seen++ {
			next, ok := aliases[t]
			if !ok {
				break
			}
			t = next
		}
		return t
	}
	aliasedIn := map[typeRef][]string{} // type -> packages aliasing it
	for a, t := range aliases {
		t = resolve(t)
		aliasedIn[t] = append(aliasedIn[t], a.pkg)
	}
	set := map[optionField]bool{}
	for _, l := range literals {
		if t := resolve(l.typ); t.pkg != l.pkg {
			set[optionField{t, l.field}] = true
		}
	}
	// sets reports whether w writes field of: the file must name the
	// type, through an import or an alias.
	sets := func(w write, of optionField) bool {
		if w.field != of.field || w.pkg == of.typ.pkg {
			return false
		}
		if w.imports[of.typ.pkg] {
			return true
		}
		return slices.ContainsFunc(aliasedIn[of.typ], func(q string) bool { return q == w.pkg || w.imports[q] })
	}
	var findings []string
	for of, pos := range fields {
		if !set[of] && !slices.ContainsFunc(writes, func(w write) bool { return sets(w, of) }) {
			findings = append(findings, fmt.Sprintf("%s: field %s.%s.%s is set by no non-test file outside its package (make it a constant, derive it or unexport it)",
				pos, of.typ.pkg[strings.LastIndexByte(of.typ.pkg, '/')+1:], of.typ.name, of.field))
		}
	}
	sort.Strings(findings)
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
