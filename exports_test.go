package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unreachableAllowed lists exported symbols under internal/ that no non-test
// file references but that stay, each with the reason it stays.
var unreachableAllowed = map[string]string{
	"repro/internal/jobstore.NewFaultStore":      "test seam: seeded fault injection for the durability tests",
	"repro/internal/solver.SolveWithCheckpoints": "test seam: drives the resume bit-identity tests",
	"repro/internal/decode.CountOpSequence":      "test oracle: checks that an operation sequence holds each job's op count",
	"repro/internal/decode.Johnson":              "test oracle: Johnson's rule is the F2 optimum the flow-shop decoders are checked against",
	"repro/internal/decode.NEH":                  "test oracle: NEH bounds the flow-shop GA's quality in the decode tests",
	"repro/internal/cellular.Synchronous":        "zero value of Update: the default policy, never named by callers",
	"repro/internal/bench.DefaultTolerance":      "documents the benchsuite gate's default tolerances; the tests pin it",
	"repro/internal/shop.BenchmarkNames":         "lists every registry instance name for the registry tests",
	"repro/internal/shop.BenchmarksInFamily":     "lists a registry family's instances for the registry tests",
}

// TestNoUnreachableExports fails when an exported top-level func, type, var
// or const under internal/ is referenced by no non-test file of the module;
// cmd/ and examples/ count as references. A reference from inside another
// unreachable symbol (or a method of an unreachable type) does not count, so
// a dead chain is reported whole. Methods are never reported: the parser
// cannot see which interface a method satisfies.
func TestNoUnreachableExports(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	x := newExportIndex()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // a separate module
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "repro"
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		return x.addFile(path, pkg)
	})
	if err != nil {
		t.Fatal(err)
	}
	if dead := x.unreachable(); len(dead) > 0 {
		t.Errorf("exported symbols no non-test code reaches; delete them or add them to unreachableAllowed with a reason:\n\t%s",
			strings.Join(dead, "\n\t"))
	}
	for key := range unreachableAllowed {
		if _, ok := x.decls[key]; !ok {
			t.Errorf("unreachableAllowed names %s, which is not declared", key)
		} else if x.referenced(key, nil) {
			t.Errorf("unreachableAllowed names %s, which non-test code now references", key)
		}
	}
}

// exportIndex maps each exported top-level symbol under internal/ ("pkg.Name")
// to the declarations that reference it. A referrer is another such symbol's
// key, or "" for any other non-test code (unexported declarations, cmd/,
// examples/, methods of unexported types).
type exportIndex struct {
	fset  *token.FileSet
	decls map[string]bool
	refs  map[string]map[string]bool
}

func newExportIndex() *exportIndex {
	return &exportIndex{fset: token.NewFileSet(), decls: map[string]bool{}, refs: map[string]map[string]bool{}}
}

func (x *exportIndex) addFile(path, pkg string) error {
	f, err := parser.ParseFile(x.fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	imports := map[string]string{}
	for _, spec := range f.Imports {
		ipath, err := strconv.Unquote(spec.Path.Value)
		if err != nil {
			return err
		}
		name := ipath[strings.LastIndex(ipath, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = ipath
	}
	internal := strings.HasPrefix(pkg, "repro/internal/")
	// owner is the key a top-level declaration's references are charged to.
	owner := func(name string) string {
		if internal && ast.IsExported(name) {
			return pkg + "." + name
		}
		return ""
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			from := ""
			if d.Recv == nil {
				from = owner(d.Name.Name)
				if from != "" {
					x.decls[from] = true
				}
			} else if recv := receiverType(d.Recv.List[0].Type); recv != "" {
				from = owner(recv)
			}
			x.walk(d, pkg, imports, from, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					from := owner(s.Name.Name)
					if from != "" {
						x.decls[from] = true
					}
					x.walk(s, pkg, imports, from, s.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if key := owner(n.Name); key != "" {
							x.decls[key] = true
						}
					}
					// A spec's values are charged to its first name.
					from := owner(s.Names[0].Name)
					x.walk(s, pkg, imports, from, s.Names...)
				}
			}
		}
	}
	return nil
}

// walk records every identifier in n as a reference from the symbol from,
// skipping the declaring names, field and method names, and selectors that
// do not name an imported package.
func (x *exportIndex) walk(n ast.Node, pkg string, imports map[string]string, from string, declared ...*ast.Ident) {
	skip := map[*ast.Ident]bool{}
	for _, id := range declared {
		skip[id] = true
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.Field:
			for _, id := range v.Names {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			skip[v.Sel] = true
			if id, ok := v.X.(*ast.Ident); ok {
				if ipath, ok := imports[id.Name]; ok {
					x.ref(ipath+"."+v.Sel.Name, from)
					skip[id] = true
				}
			}
		case *ast.Ident:
			if !skip[v] && ast.IsExported(v.Name) {
				x.ref(pkg+"."+v.Name, from)
			}
		}
		return true
	})
}

func (x *exportIndex) ref(key, from string) {
	if key == from {
		return // recursion does not make a symbol reachable
	}
	if x.refs[key] == nil {
		x.refs[key] = map[string]bool{}
	}
	x.refs[key][from] = true
}

// referenced reports whether a referrer of key lies outside dead.
func (x *exportIndex) referenced(key string, dead map[string]bool) bool {
	for from := range x.refs[key] {
		if from == "" || !dead[from] {
			return true
		}
	}
	return false
}

// unreachable returns the sorted keys of the largest set of declared,
// non-allowlisted symbols whose every referrer is in the set itself.
// Allowlisted symbols count as reachable, and so does what they reference.
func (x *exportIndex) unreachable() []string {
	dead := map[string]bool{}
	for key := range x.decls {
		if _, ok := unreachableAllowed[key]; !ok {
			dead[key] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for key := range dead {
			if x.referenced(key, dead) {
				delete(dead, key)
				changed = true
			}
		}
	}
	keys := make([]string, 0, len(dead))
	for key := range dead {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// receiverType returns the type name of a method receiver (T, *T, T[P]).
func receiverType(e ast.Expr) string {
	for {
		switch v := e.(type) {
		case *ast.StarExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.IndexListExpr:
			e = v.X
		case *ast.Ident:
			return v.Name
		default:
			return ""
		}
	}
}
