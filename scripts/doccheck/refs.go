package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// refExempt reports whether a markdown file (slash path relative to the
// root) is exempt from the reference rule: the history files record names
// as they were, and the benchmark's directory is frozen with its workloads.
func refExempt(rel string) bool {
	switch rel {
	case "ROADMAP.md", "CHANGES.md", "ISSUE.md":
		return true
	}
	return strings.HasPrefix(rel, "cmd/rocoperf/")
}

// decls indexes what the module declares, for resolving markdown
// references against it. Names are merged across packages: a reference
// resolves when any package or type of that name declares the member.
type decls struct {
	pkgs    map[string]map[string]bool // package name -> package-level identifiers
	types   map[string]bool            // every declared type name
	members map[string]map[string]bool // type name -> fields, methods, interface methods
	embeds  map[string][]string        // type name -> embedded type names
}

func newDecls() *decls {
	return &decls{
		pkgs:    map[string]map[string]bool{},
		types:   map[string]bool{},
		members: map[string]map[string]bool{},
		embeds:  map[string][]string{},
	}
}

// collectDecls parses every non-test Go file under root.
func collectDecls(root string) (*decls, error) {
	ds := newDecls()
	fset := token.NewFileSet()
	for _, path := range sourceFiles(root, goSource) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		ds.addFile(f)
	}
	return ds, nil
}

// addName records name under key.
func addName(m map[string]map[string]bool, key, name string) {
	if m[key] == nil {
		m[key] = map[string]bool{}
	}
	m[key][name] = true
}

// addFile records a file's package-level identifiers, and the fields,
// methods and embeddings of its types.
func (ds *decls) addFile(f *ast.File) {
	pkg := f.Name.Name
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv != nil {
				addName(ds.members, receiverType(d), d.Name.Name)
			} else {
				addName(ds.pkgs, pkg, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					addName(ds.pkgs, pkg, s.Name.Name)
					ds.types[s.Name.Name] = true
					ds.addType(s.Name.Name, s.Type)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						addName(ds.pkgs, pkg, n.Name)
					}
				}
			}
		}
	}
}

// addType records the members of a struct or interface type.
func (ds *decls) addType(name string, t ast.Expr) {
	var fields *ast.FieldList
	switch t := t.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			addName(ds.members, name, n.Name)
		}
		if len(f.Names) == 0 {
			if e := typeName(f.Type); e != "" {
				addName(ds.members, name, e)
				ds.embeds[name] = append(ds.embeds[name], e)
			}
		}
	}
}

// typeName returns the bare name of an embedded type expression.
func typeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return typeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.IndexExpr:
		return typeName(t.X)
	}
	return ""
}

// hasMember reports whether type typ declares member, directly or
// promoted through an embedded type.
func (ds *decls) hasMember(typ, member string) bool {
	seen := map[string]bool{}
	var walk func(string) bool
	walk = func(t string) bool {
		if seen[t] {
			return false
		}
		seen[t] = true
		if ds.members[t][member] {
			return true
		}
		for _, e := range ds.embeds[t] {
			if walk(e) {
				return true
			}
		}
		return false
	}
	return walk(typ)
}

// unresolved checks one dotted reference, split at its dots, and returns
// the part that names nothing the module declares ("" when it resolves
// or is not the module's to check). A module package qualifier needs the
// next name package-level in it (and a third name a member of that type);
// an exported qualifier must be a module type with the next name as its
// member. Any other qualifier — a variable, a standard-library package, a
// file name — is skipped, as is every unexported member.
func (ds *decls) unresolved(chain []string) string {
	if len(chain) < 2 || !token.IsExported(chain[1]) {
		return ""
	}
	if idents, ok := ds.pkgs[chain[0]]; ok {
		if !idents[chain[1]] {
			return chain[0] + "." + chain[1]
		}
		if len(chain) > 2 && ds.types[chain[1]] && token.IsExported(chain[2]) && !ds.hasMember(chain[1], chain[2]) {
			return strings.Join(chain[:3], ".")
		}
		return ""
	}
	if (ds.types[chain[0]] || token.IsExported(chain[0])) && !ds.hasMember(chain[0], chain[1]) {
		return chain[0] + "." + chain[1]
	}
	return ""
}

var (
	// codeSpan matches an inline code span.
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// dotted matches a dotted identifier chain not itself preceded by an
	// identifier character or a dot (so `a.b[i].C` yields only a.b).
	dotted = regexp.MustCompile(`(?:^|[^\w.])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`)
)

// lineRefs returns the unresolved references in the inline code spans of
// one markdown line.
func (ds *decls) lineRefs(line string) []string {
	var bad []string
	for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
		for _, m := range dotted.FindAllStringSubmatch(span[1], -1) {
			if ref := ds.unresolved(strings.Split(m[1], ".")); ref != "" {
				bad = append(bad, ref)
			}
		}
	}
	return bad
}

// checkMarkdownRefs verifies that every backticked Type.Member or
// pkg.Ident reference with an exported member, in every non-exempt
// markdown file outside fenced code blocks, names something the module
// declares: a type's field or method, an interface method, or a
// package-level identifier.
func checkMarkdownRefs(root string) []string {
	ds, err := collectDecls(root)
	if err != nil {
		return []string{fmt.Sprintf("collecting declarations: %v", err)}
	}
	var problems []string
	for _, path := range sourceFiles(root, markdown) {
		if rel, _ := filepath.Rel(root, path); refExempt(filepath.ToSlash(rel)) {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		fenced := false
		for lineNo, line := range strings.Split(string(data), "\n") {
			if t := strings.TrimSpace(line); strings.HasPrefix(t, "```") || strings.HasPrefix(t, "~~~") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, ref := range ds.lineRefs(line) {
				problems = append(problems, fmt.Sprintf("%s:%d: `%s` names nothing the module declares", path, lineNo+1, ref))
			}
		}
	}
	return problems
}
