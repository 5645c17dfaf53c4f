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
	fset := token.NewFileSet()
	for _, root := range []string{".", "internal", "cmd", "bench"} {
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
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
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
