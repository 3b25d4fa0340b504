// Command doccheck is the documentation gate run by scripts/doccheck.sh:
// it walks the module with the standard library's go/parser and fails
// when (1) any package is missing a godoc package comment, (2) any
// exported identifier in a public (non-internal, non-main) package is
// missing a doc comment — a group doc on a const/var/type block covers
// its members — (3) any relative link in a markdown file points at a
// path that does not exist, or (4) a backticked Type.Member or pkg.Ident
// in a markdown file names something the module does not declare (see
// refs.go). No output and exit 0 means the docs are whole.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var problems []string
	problems = append(problems, checkGoDocs(root)...)
	problems = append(problems, checkMarkdownLinks(root)...)
	problems = append(problems, checkMarkdownRefs(root)...)
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "doccheck: "+p)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d problems\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("doccheck: ok")
}

// skipDir names directories that hold no checked sources.
func skipDir(name string) bool {
	return name == ".git" || name == "testdata" || strings.HasPrefix(name, ".")
}

// sourceFiles lists the files under root that keep accepts, skipping the
// directories skipDir names — but never root itself, since "." starts
// with a dot.
func sourceFiles(root string, keep func(path string) bool) []string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
		case d.IsDir():
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
		case keep(path):
			files = append(files, path)
		}
		return nil
	})
	return files
}

// goSource accepts non-test Go files.
func goSource(path string) bool {
	return strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go")
}

// markdown accepts markdown files.
func markdown(path string) bool { return strings.HasSuffix(path, ".md") }

// checkGoDocs parses every package directory and applies the package- and
// exported-identifier-comment rules.
func checkGoDocs(root string) []string {
	dirs := map[string]bool{}
	for _, path := range sourceFiles(root, goSource) {
		dirs[filepath.Dir(path)] = true
	}

	var problems []string
	for dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", dir, err))
			continue
		}
		for name, pkg := range pkgs {
			problems = append(problems, checkPackage(fset, dir, name, pkg)...)
		}
	}
	return problems
}

// publicPackage reports whether dir's exported identifiers are part of
// the module's API surface: not under internal/ or scripts/, and not a
// command (package main has no importable identifiers).
func publicPackage(dir, pkgName string) bool {
	if pkgName == "main" {
		return false
	}
	clean := filepath.ToSlash(dir)
	return !strings.Contains(clean+"/", "/internal/") &&
		!strings.HasPrefix(clean, "internal/") &&
		!strings.HasPrefix(clean, "scripts/")
}

func checkPackage(fset *token.FileSet, dir, name string, pkg *ast.Package) []string {
	var problems []string

	hasPkgDoc := false
	for _, f := range pkg.Files {
		if f.Doc != nil {
			hasPkgDoc = true
			break
		}
	}
	if !hasPkgDoc {
		problems = append(problems, fmt.Sprintf("%s: package %s has no package comment", dir, name))
	}

	if !publicPackage(dir, name) {
		return problems
	}

	// Exported types, to scope the method rule below to reachable methods.
	exportedTypes := map[string]bool{}
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
					exportedTypes[ts.Name.Name] = true
				}
			}
		}
	}

	report := func(pos token.Pos, kind, ident string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, ident))
	}

	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || d.Doc != nil {
					continue
				}
				if d.Recv != nil && !exportedTypes[receiverType(d)] {
					continue
				}
				report(d.Pos(), "function", d.Name.Name)
			case *ast.GenDecl:
				if d.Doc != nil {
					continue // a block doc covers every member
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && s.Doc == nil {
							report(s.Pos(), "type", s.Name.Name)
						}
					case *ast.ValueSpec:
						if s.Doc != nil || s.Comment != nil {
							continue
						}
						for _, n := range s.Names {
							if n.IsExported() {
								report(s.Pos(), "value", n.Name)
							}
						}
					}
				}
			}
		}
	}
	return problems
}

// receiverType extracts the bare type name of a method receiver.
func receiverType(d *ast.FuncDecl) string {
	if len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// mdLink matches markdown link and image targets: [text](target).
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// checkMarkdownLinks verifies that every relative link in every *.md file
// resolves to an existing file or directory.
func checkMarkdownLinks(root string) []string {
	var problems []string
	for _, path := range sourceFiles(root, markdown) {
		data, err := os.ReadFile(path)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		for lineNo, line := range strings.Split(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "#") ||
					strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "/") {
					continue
				}
				if i := strings.IndexByte(target, '#'); i >= 0 {
					target = target[:i]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), target)
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: dead relative link %q", path, lineNo+1, m[1]))
				}
			}
		}
	}
	return problems
}
