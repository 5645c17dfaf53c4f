package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoUnreachedExports keeps internal/'s exported surface to what a
// round can reach: a package-level exported func, type, const or var
// declared in a non-test file under internal/ must be named by some
// file other than its own directory's _test.go files — a command, the
// benchmark, another package (tests included), or the package's own
// non-test code. A name only its own tests call is
// deleted with them, or lives in the _test.go file that needs it.
// Methods are out of scope: they also satisfy interfaces. The scan is
// by identifier name behind the importing file's package qualifier, so
// it can miss an unreached name that shares one with a method; it does
// not raise a reached one.
func TestNoUnreachedExports(t *testing.T) {
	type decl struct{ dir, name string }
	declared := map[decl]token.Position{}
	reached := map[decl]bool{}
	eachGoFile(t, []string{".", "internal", "cmd", "bench"}, func(p string, f *ast.File, fset *token.FileSet) {
		dir := filepath.ToSlash(filepath.Dir(p))
		isTest := strings.HasSuffix(p, "_test.go")
		own := map[*ast.Ident]bool{}
		if strings.HasPrefix(dir, "internal/") && !isTest {
			for _, name := range packageLevelNames(f) {
				if name.IsExported() {
					declared[decl{dir, name.Name}] = fset.Position(name.Pos())
					own[name] = true
				}
			}
		}
		// What this file names in other packages: sel.Name behind
		// the local name of an import of repro/<dir>.
		imports := map[string]string{}
		for _, im := range f.Imports {
			ipath, _ := strconv.Unquote(im.Path.Value)
			if rest, ok := strings.CutPrefix(ipath, "repro/"); ok {
				local := path.Base(rest)
				if im.Name != nil {
					local = im.Name.Name
				}
				imports[local] = rest
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					reached[decl{imports[x.Name], n.Sel.Name}] = true
				}
			case *ast.Ident:
				// What the package's own non-test code names,
				// other than at the declaration itself.
				if !isTest && !own[n] {
					reached[decl{dir, n.Name}] = true
				}
			}
			return true
		})
	})
	var unreached []string
	for d, pos := range declared {
		if !reached[d] {
			unreached = append(unreached, pos.String()+": "+path.Base(d.dir)+"."+d.name)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is reached only from its own package's tests, if at all", u)
	}
}

// TestNoUncalledUnexported keeps dead code out of internal/ and cmd/:
// an unexported package-level func or method declared in a non-test
// file must be named somewhere in its own package — its code or its
// tests — other than at its declaration. Like TestNoUnreachedExports
// the scan is by identifier name, so a dead method that shares its name
// with a live identifier of the package goes unnoticed; a named one is
// never reported.
func TestNoUncalledUnexported(t *testing.T) {
	type decl struct{ dir, name string }
	declared := map[decl]token.Position{}
	named := map[decl]bool{}
	eachGoFile(t, []string{"internal", "cmd"}, func(p string, f *ast.File, fset *token.FileSet) {
		dir := filepath.ToSlash(filepath.Dir(p))
		own := map[*ast.Ident]bool{}
		if !strings.HasSuffix(p, "_test.go") {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if ok && !fn.Name.IsExported() && fn.Name.Name != "main" && fn.Name.Name != "init" {
					declared[decl{dir, fn.Name.Name}] = fset.Position(fn.Name.Pos())
					own[fn.Name] = true
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				named[decl{dir, id.Name}] = true
			}
			return true
		})
	})
	var dead []string
	for d, pos := range declared {
		if !named[d] {
			dead = append(dead, pos.String()+": "+path.Base(d.dir)+"."+d.name)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is named nowhere in its package, tests included", d)
	}
}

// eachGoFile parses every .go file under roots and hands it to fn.
// Hidden directories and out/ are skipped, and the root "." is read
// without its subdirectories.
func eachGoFile(t *testing.T, roots []string, fn func(p string, f *ast.File, fset *token.FileSet)) {
	t.Helper()
	fset := token.NewFileSet()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if p != root && (root == "." || strings.HasPrefix(d.Name(), ".") || d.Name() == "out") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			fn(p, f, fset)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// packageLevelNames returns the identifiers a file declares at package
// level, methods excluded.
func packageLevelNames(f *ast.File) []*ast.Ident {
	var names []*ast.Ident
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name)
				case *ast.ValueSpec:
					names = append(names, s.Names...)
				}
			}
		}
	}
	return names
}
