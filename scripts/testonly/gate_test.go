// Package testonly holds a tier-1 gate, run by `go test ./...`: it fails
// when a declaration in a non-test file of the module is referenced only
// by tests. It type-checks the whole module from source with go/types
// (the standard library through the "source" importer), walking the
// directory tree itself, so it needs neither `go list` nor the network.
// The package has only _test.go files: the gate is test code.
//
// Candidates are the top-level funcs, methods, types, vars and consts of
// non-test files, and the methods of their interfaces. The root package's
// exported API, typed enum constants and methods that implement an
// interface seen in the program or its imports are no candidates. A
// reference from a test file or a test-support package keeps nothing
// alive, and neither does one from inside the declaration itself.
package testonly

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// layout says which parts of a module tree the gate treats specially.
// Directories are slash-separated and relative to the module root.
type layout struct {
	root string
	// nested lists nested modules whose non-test files are production
	// code: they import the module's packages and must keep building.
	nested []string
	// exempt lists directories whose declarations are not candidates.
	exempt []string
	// support lists test-support packages: their non-test files count as
	// test code, so a reference from them keeps nothing alive.
	support []string
}

// hit is a candidate declaration that no production file references.
type hit struct {
	pos      token.Position // Filename relative to the module root
	name     string         // qualified name, e.g. internal/stats.(*Running).Merge
	testFile string         // one test file that references it, or ""
}

func (h hit) String() string {
	if h.testFile == "" {
		return fmt.Sprintf("%s:%d: %s is not referenced", h.pos.Filename, h.pos.Line, h.name)
	}
	return fmt.Sprintf("%s:%d: %s is referenced only by %s", h.pos.Filename, h.pos.Line, h.name, h.testFile)
}

// One file set and one standard-library importer serve every module the
// test process checks, so the standard library is type-checked once.
var (
	fset   = token.NewFileSet()
	stdlib types.ImporterFrom
	ctxt   build.Context
)

func init() {
	// Pure Go build context: the source importer would otherwise run
	// cgo (and a C compiler) for packages such as net.
	build.Default.CgoEnabled = false
	ctxt = build.Default
	stdlib = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
}

// pkg is one directory's package: its non-test files type-checked
// together with its in-package test files, plus its external test files.
type pkg struct {
	dir, path string // slash-separated dir relative to the root; import path
	files     []*ast.File
	xtest     []*ast.File
	types     *types.Package
	info      *types.Info
	checking  bool
}

// checker type-checks one module tree and records what it needs to find
// hits.
type checker struct {
	layout
	modPath   string
	goVersion string
	pkgs      map[string]*pkg // by import path
	infos     []*types.Info
	errs      []string
	test      map[string]bool // absolute filename -> counts as test code
}

// findHits type-checks the module at l.root and returns its hits, sorted
// by position.
func findHits(l layout) ([]hit, error) {
	c := &checker{layout: l, pkgs: map[string]*pkg{}, test: map[string]bool{}}
	if err := c.readGoMod(); err != nil {
		return nil, err
	}
	if err := c.parse(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(c.pkgs))
	for path := range c.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := c.check(path); err != nil {
			return nil, err
		}
	}
	for _, path := range paths {
		if p := c.pkgs[path]; len(p.xtest) > 0 {
			c.checkFiles(p.path+"_test", p.xtest)
		}
	}
	if len(c.errs) > 0 {
		return nil, fmt.Errorf("type errors:\n%s", strings.Join(c.errs, "\n"))
	}
	return c.hits(paths), nil
}

func (c *checker) readGoMod() error {
	f, err := os.Open(filepath.Join(c.root, "go.mod"))
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 && fields[0] == "module" {
			c.modPath = fields[1]
		}
		if len(fields) == 2 && fields[0] == "go" {
			c.goVersion = "go" + fields[1]
		}
	}
	if c.modPath == "" {
		return fmt.Errorf("%s/go.mod names no module", c.root)
	}
	return sc.Err()
}

// within reports whether the slash-separated dir is one of dirs or below
// one.
func within(dir string, dirs []string) bool {
	for _, d := range dirs {
		if dir == d || strings.HasPrefix(dir, d+"/") {
			return true
		}
	}
	return false
}

// parse walks the tree as the go command would (skipping testdata, dot
// and underscore directories and nested modules other than l.nested) and
// parses every file the default build context selects.
func (c *checker) parse() error {
	return filepath.WalkDir(c.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(c.root, path)
		dir := filepath.ToSlash(rel)
		if dir != "." {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && !within(dir, c.nested) {
				return filepath.SkipDir
			}
		}
		return c.parseDir(path, dir)
	})
}

func (c *checker) parseDir(abs, dir string) error {
	entries, err := os.ReadDir(abs)
	if err != nil {
		return err
	}
	p := &pkg{dir: dir, path: c.modPath}
	if dir != "." {
		p.path += "/" + dir
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := ctxt.MatchFile(abs, name); err != nil || !ok {
			continue
		}
		filename := filepath.Join(abs, name)
		f, err := parser.ParseFile(fset, filename, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		isTest := strings.HasSuffix(name, "_test.go")
		c.test[filename] = isTest || within(dir, c.support)
		if isTest && strings.HasSuffix(f.Name.Name, "_test") {
			p.xtest = append(p.xtest, f)
		} else {
			p.files = append(p.files, f)
		}
	}
	if len(p.files)+len(p.xtest) > 0 {
		c.pkgs[p.path] = p
	}
	return nil
}

// Import makes the checker the types.Importer of the module's packages:
// module paths are checked from the tree, everything else must come from
// the standard library's source.
func (c *checker) Import(path string) (*types.Package, error) {
	if _, ok := c.pkgs[path]; ok {
		return c.check(path)
	}
	if fi, err := os.Stat(filepath.Join(ctxt.GOROOT, "src", path)); err != nil || !fi.IsDir() {
		return nil, fmt.Errorf("%s is neither in the module nor in the standard library", path)
	}
	return stdlib.ImportFrom(path, c.root, 0)
}

func (c *checker) check(path string) (*types.Package, error) {
	p := c.pkgs[path]
	if p.types != nil {
		return p.types, nil
	}
	if p.checking {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	p.checking = true
	p.types, p.info = c.checkFiles(path, p.files)
	return p.types, nil
}

func (c *checker) checkFiles(path string, files []*ast.File) (*types.Package, *types.Info) {
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{
		Importer:  c,
		GoVersion: c.goVersion,
		Error:     func(err error) { c.errs = append(c.errs, err.Error()) },
	}
	tp, _ := conf.Check(path, fset, files, info)
	c.infos = append(c.infos, info)
	return tp, info
}

// production reports whether pos lies in a file of the tree that is not
// test code.
func (c *checker) production(pos token.Pos) bool {
	f := fset.File(pos)
	if f == nil {
		return false
	}
	test, ok := c.test[f.Name()]
	return ok && !test
}

// testCode reports whether pos lies in a file of the tree that is test
// code.
func (c *checker) testCode(pos token.Pos) bool {
	f := fset.File(pos)
	return f != nil && c.test[f.Name()]
}

// candidate is a declaration the gate checks, with the source range of
// its own spec: references from inside that range do not count.
type candidate struct {
	obj        types.Object
	name       string
	start, end token.Pos
}

// hits finds every candidate that no production file references.
func (c *checker) hits(paths []string) []hit {
	cands := map[types.Object]*candidate{}
	recv := map[*ast.Ident]bool{} // receiver type identifiers, which are no reference
	for _, path := range paths {
		p := c.pkgs[path]
		for _, f := range p.files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							recv[id] = true
						}
						return true
					})
				}
			}
			if !c.production(f.Pos()) || within(p.dir, c.exempt) || within(p.dir, c.nested) {
				continue
			}
			for _, cd := range c.declared(p, f) {
				cands[cd.obj] = cd
			}
		}
	}
	for obj := range c.implementers() {
		delete(cands, obj)
	}

	prod := map[types.Object]bool{}
	tests := map[types.Object]string{}
	for _, info := range c.infos {
		for id, obj := range info.Uses {
			cd := cands[origin(obj)]
			if cd == nil || recv[id] || (cd.start <= id.Pos() && id.Pos() < cd.end) {
				continue
			}
			if c.production(id.Pos()) {
				prod[cd.obj] = true
				continue
			}
			rel, _ := filepath.Rel(c.root, fset.File(id.Pos()).Name())
			if t, ok := tests[cd.obj]; !ok || filepath.ToSlash(rel) < t {
				tests[cd.obj] = filepath.ToSlash(rel)
			}
		}
	}

	var out []hit
	for obj, cd := range cands {
		if prod[obj] {
			continue
		}
		pos := fset.Position(obj.Pos())
		rel, _ := filepath.Rel(c.root, pos.Filename)
		pos.Filename = filepath.ToSlash(rel)
		out = append(out, hit{pos: pos, name: cd.name, testFile: tests[obj]})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].pos, out[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return out
}

// origin maps an instantiated generic function or method to its
// declaration.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// declared lists the candidates declared at the top level of f: every
// func, method, type, var and const, except the root package's exported
// API and typed enum constants (both reached in ways a reference count
// cannot see).
func (c *checker) declared(p *pkg, f *ast.File) []*candidate {
	info := p.info
	prefix := p.dir + "."
	if p.dir == "." {
		prefix = p.types.Name() + "."
	}
	api := func(name string) bool { return p.dir == "." && token.IsExported(name) }
	var out []*candidate
	add := func(id *ast.Ident, name string, node ast.Node) {
		if obj := info.Defs[id]; obj != nil {
			out = append(out, &candidate{obj: obj, name: prefix + name, start: node.Pos(), end: node.End()})
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv == nil {
				if name == "init" || name == "main" || name == "_" || api(name) {
					continue
				}
				add(d.Name, name, d)
				continue
			}
			base, ptr := receiver(d.Recv.List[0].Type)
			if api(base) && api(name) {
				continue
			}
			if ptr {
				add(d.Name, "(*"+base+")."+name, d)
			} else {
				add(d.Name, base+"."+name, d)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if api(s.Name.Name) {
						continue
					}
					add(s.Name, s.Name.Name, s)
					// An interface method that only tests call is test-only
					// code too, however many types implement it.
					if it, ok := s.Type.(*ast.InterfaceType); ok {
						for _, m := range it.Methods.List {
							for _, id := range m.Names {
								add(id, s.Name.Name+"."+id.Name, m)
							}
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.Name == "_" || api(id.Name) {
							continue
						}
						if obj, ok := info.Defs[id].(*types.Const); ok && isNamed(obj.Type()) {
							continue
						}
						add(id, id.Name, s)
					}
				}
			}
		}
	}
	return out
}

func isNamed(t types.Type) bool {
	_, ok := types.Unalias(t).(*types.Named)
	return ok
}

// receiver returns a method receiver's base type name and whether it is
// a pointer.
func receiver(e ast.Expr) (string, bool) {
	ptr := false
	if s, ok := e.(*ast.StarExpr); ok {
		e, ptr = s.X, true
	}
	switch t := e.(type) {
	case *ast.IndexExpr:
		e = t.X
	case *ast.IndexListExpr:
		e = t.X
	}
	return e.(*ast.Ident).Name, ptr
}

// implementers returns every method that implements a method of an
// interface seen in the program or its imports: the named interfaces of
// every package, error, and the interface types of production files.
// Such a method may be called only through the interface (container/heap
// calls Push and Pop, fmt calls String), which no reference shows.
func (c *checker) implementers() map[types.Object]bool {
	var ifaces []*types.Interface
	seen := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			ifaces = append(ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if tp == nil || visited[tp] {
			return
		}
		visited[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && !c.testCode(tn.Pos()) && types.IsInterface(tn.Type()) {
				addIface(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range c.pkgs {
		visit(p.types)
	}

	// The program's own types, local ones included, and every interface
	// type its production files spell out.
	var named []*types.Named
	for _, info := range c.infos {
		for e, tv := range info.Types {
			if tv.Type != nil && types.IsInterface(tv.Type) && c.production(e.Pos()) {
				addIface(tv.Type)
			}
		}
		for id, obj := range info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() || !c.production(id.Pos()) {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
				named = append(named, n)
			}
		}
	}

	out := map[types.Object]bool{}
	for _, n := range named {
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		for _, it := range ifaces {
			if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil {
				continue
			}
			if !types.Implements(n, it) && !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				// A method promoted from an embedded interface is that
				// interface's method, which callers must still reach.
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok && !types.IsInterface(fn.Type().(*types.Signature).Recv().Type()) {
					out[origin(fn)] = true
				}
			}
		}
	}
	return out
}
