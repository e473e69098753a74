// Command reach reports every function declared in a production package
// under internal/ that no binary of the repository links.
//
// It builds the binaries (every main package under cmd/ and examples/, and
// the benchmark module's harness) with inlining off, so each function a
// binary calls keeps its own symbol, and reads their symbol tables with
// go tool nm. It then walks the non-test Go files of every package under
// internal/ whose name does not end in "test" and lists each function and
// method declaration that none of the binaries contains. A declaration kept
// on purpose goes on the allowlist (tools/reach/allowlist.txt), one a line
// with its reason:
//
//	internal/twigstack.postHeap.Push  heap.Interface needs it; heap.Pop reaches only Pop
//
// The command exits 1 when a declaration is neither linked nor allowlisted,
// when an allowlist entry names a declaration that is linked or gone, or
// when a binary links a package named *test: those packages hold test
// fixtures and fault injection, and are skipped only because no binary may
// run them.
//
//	go run ./tools/reach            # from the repository root
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// allowPath is the allowlist, relative to the repository root: one
// "key reason" a line, # comments.
const allowPath = "tools/reach/allowlist.txt"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(2)
	}
}

// decl is one function or method declaration in a production package.
type decl struct {
	key   string // "internal/prix.Build", "internal/prix.Index.Match"
	pos   string // file:line
	lines int
}

func run() error {
	module, err := modulePath("go.mod")
	if err != nil {
		return err
	}
	allow, err := readAllowlist(allowPath)
	if err != nil {
		return err
	}
	decls, err := declarations("internal")
	if err != nil {
		return err
	}
	linked, testLinked, err := linkedSymbols(module)
	if err != nil {
		return err
	}

	declared := make(map[string]bool, len(decls))
	total, unreached := 0, 0
	var missing []decl
	for _, d := range decls {
		declared[d.key] = true
		total += d.lines
		if !linked[d.key] && !allow[d.key] {
			missing = append(missing, d)
			unreached += d.lines
		}
	}

	var stale []string
	for k := range allow {
		switch {
		case !declared[k]:
			stale = append(stale, k+" (no such declaration)")
		case linked[k]:
			stale = append(stale, k+" (a binary links it)")
		}
	}
	sort.Strings(stale)

	for _, d := range missing {
		fmt.Printf("%s: %s (%d lines) is reached by no binary\n", d.pos, d.key, d.lines)
	}
	for _, s := range stale {
		fmt.Printf("%s: stale allowlist entry %s\n", allowPath, s)
	}
	for _, s := range testLinked {
		fmt.Printf("%s links test-only package %s\n", s[1], s[0])
	}
	fmt.Printf("reach: %d of %d function lines under internal/ reached by no binary (%d declarations, %d allowlisted)\n",
		unreached, total, len(missing), len(allow))
	if len(missing) > 0 || len(stale) > 0 || len(testLinked) > 0 {
		os.Exit(1)
	}
	return nil
}

func packageOf(key string) string {
	slash := strings.LastIndexByte(key, '/')
	return key[:slash+strings.IndexByte(key[slash:], '.')]
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func readAllowlist(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("%s:%d: %q gives no reason", path, n, f[0])
		}
		allow[f[0]] = true
	}
	return allow, sc.Err()
}

// declarations walks every production package under root: the files the
// default build context compiles, tests and packages named *test left out.
func declarations(root string) ([]decl, error) {
	var decls []decl
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(dir string, e os.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if e.Name() == "testdata" || testOnly(e.Name()) {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel := filepath.ToSlash(dir)
		for _, name := range pkg.GoFiles {
			file := filepath.Join(dir, name)
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				key := fd.Name.Name
				if fd.Recv != nil {
					key = receiverType(fd.Recv.List[0].Type) + "." + key
				}
				start := fset.Position(fd.Pos())
				decls = append(decls, decl{
					key:   rel + "." + key,
					pos:   fmt.Sprintf("%s:%d", file, start.Line),
					lines: fset.Position(fd.End()).Line - start.Line + 1,
				})
			}
		}
		return nil
	})
	return decls, err
}

// receiverType names a receiver's base type: *T, T[K] and *T[K] are all T.
func receiverType(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.ParenExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", x)
		}
	}
}

// testOnly reports whether a directory or package name marks a test-only
// package, which declarations skips and no binary may link.
func testOnly(name string) bool { return strings.HasSuffix(name, "test") }

// linkedSymbols builds every binary without inlining and returns the
// declaration keys their text symbols name, and each {package, binary}
// pair where a binary links a test-only package.
func linkedSymbols(module string) (map[string]bool, [][2]string, error) {
	dir, err := os.MkdirTemp("", "reach-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	const noInline = "-gcflags=all=-l"
	builds := [][]string{
		{"build", noInline, "-o", dir + string(filepath.Separator), "./cmd/...", "./examples/..."},
		// The benchmark is a nested module; -C must come first.
		{"-C", "benchmark", "build", noInline, "-o", filepath.Join(dir, "benchmark"), "."},
	}
	for _, args := range builds {
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
		}
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(bins) < 2 {
		return nil, nil, fmt.Errorf("built %d binaries", len(bins))
	}
	linked := map[string]bool{}
	var testLinked [][2]string
	prefix := module + "/"
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name())).Output()
		if err != nil {
			return nil, nil, fmt.Errorf("go tool nm %s: %w", b.Name(), err)
		}
		seen := map[string]bool{}
		for _, line := range strings.Split(string(out), "\n") {
			// "  4a3b20 T repro/internal/prix.(*Index).Match"
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) != 3 || (f[1] != "T" && f[1] != "t") || !strings.HasPrefix(f[2], prefix) {
				continue
			}
			keys := symbolKeys(strings.TrimPrefix(f[2], prefix))
			for _, k := range keys {
				linked[k] = true
			}
			if len(keys) == 0 {
				continue
			}
			if pkg := packageOf(keys[0]); !seen[pkg] {
				seen[pkg] = true
				for _, elem := range strings.Split(pkg, "/") {
					if testOnly(elem) {
						testLinked = append(testLinked, [2]string{pkg, b.Name()})
						break
					}
				}
			}
		}
	}
	sort.Slice(testLinked, func(i, j int) bool {
		return testLinked[i][0]+testLinked[i][1] < testLinked[j][0]+testLinked[j][1]
	})
	return linked, testLinked, nil
}

// symbolKeys maps a text symbol to the declaration keys it may stand for.
// Type arguments ("[go.shape.int]") and pointer receivers ("(*T)") are
// dropped, so a pointer wrapper counts for its value method and an
// instantiation for its generic declaration. A closure ("F.func1.2"), a go
// or defer wrapper ("F.gowrap1"), a range-over-func body ("F-range1") and a
// method value ("T.M-fm") count for the function they sit in: the key is
// both the first and the first two components, and only the one declared
// can match, since a package never names a type and a function alike.
func symbolKeys(sym string) []string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth > 0:
		case r == '(' || r == ')' || r == '*':
		default:
			b.WriteRune(r)
		}
	}
	s := b.String()
	slash := strings.LastIndexByte(s, '/')
	dot := slash + strings.IndexByte(s[slash:], '.')
	if dot < slash {
		return nil
	}
	pkg, parts := s[:dot], strings.Split(s[dot+1:], ".")
	for i, p := range parts {
		if j := strings.IndexByte(p, '-'); j >= 0 {
			parts[i] = p[:j]
		}
	}
	keys := []string{pkg + "." + parts[0]}
	if len(parts) > 1 {
		keys = append(keys, pkg+"."+parts[0]+"."+parts[1])
	}
	return keys
}
