package pager_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestDurableWritesGoThroughPager keeps the durability seam in one place:
// outside internal/pager, no program file under internal/ or cmd/ creates,
// writes or renames a file through package os. Every durable artifact goes
// through pager.FS — pager.CreateAtomic or pager.WriteFileAtomic for a
// replaced file — so it is synced before its rename and crash-sweep tests
// can cut it.
func TestDurableWritesGoThroughPager(t *testing.T) {
	banned := map[string]bool{"Rename": true, "Create": true, "WriteFile": true}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var found []string
	for _, tree := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, tree), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			if d.IsDir() {
				if filepath.ToSlash(rel) == "internal/pager" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			osName := ""
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); p == "os" {
					osName = "os"
					if imp.Name != nil {
						osName = imp.Name.Name
					}
				}
			}
			if osName == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == osName && banned[sel.Sel.Name] {
					pos := fset.Position(call.Pos())
					found = append(found, filepath.ToSlash(rel)+":"+strconv.Itoa(pos.Line)+": os."+sel.Sel.Name)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(found) > 0 {
		t.Errorf("file writes that bypass pager.FS:\n%s", strings.Join(found, "\n"))
	}
}
