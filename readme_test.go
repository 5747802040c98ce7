package ibbesgx

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestReadmeCommandsMatchFlags checks every `go run ./cmd/<name> …` command
// in README.md against the command's source: the directory must exist, and
// every -flag token after it must be a flag the command defines. A line is
// cut at its first # (a shell comment) and split into commands on &&, | and
// ;. The defined flags are read from the flag.X / fs.X calls of the
// command's non-test files with go/parser; nothing is built.
func TestReadmeCommandsMatchFlags(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	defined := map[string]map[string]bool{}
	for n, line := range strings.Split(string(readme), "\n") {
		line, _, _ = strings.Cut(line, "#")
		for _, cmd := range strings.Split(strings.NewReplacer("&&", ";", "|", ";").Replace(line), ";") {
			f := strings.Fields(cmd)
			if len(f) < 3 || f[0] != "go" || f[1] != "run" || !strings.HasPrefix(f[2], "./cmd/") {
				continue
			}
			dir := strings.TrimPrefix(f[2], "./")
			flags, ok := defined[dir]
			if !ok {
				flags = commandFlags(t, dir)
				defined[dir] = flags
			}
			if flags == nil {
				t.Errorf("README.md:%d: %s: no such command directory", n+1, f[2])
				continue
			}
			for _, tok := range f[3:] {
				if !strings.HasPrefix(tok, "-") {
					continue
				}
				name, _, _ := strings.Cut(strings.TrimLeft(tok, "-"), "=")
				if !flags[name] {
					t.Errorf("README.md:%d: %s has no flag -%s", n+1, f[2], name)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("README.md holds no go run ./cmd/… command")
	}
}

// flagDefiners are the flag package's defining functions, on the package or
// on a FlagSet; the flag name is each call's first string-literal argument.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// commandFlags returns the flags defined in dir's non-test Go files, with
// the -h and -help every flag set accepts, or nil when dir does not exist.
func commandFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	if _, err := os.Stat(dir); err != nil {
		return nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{"h": true, "help": true}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefiners[sel.Sel.Name] {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || (x.Name != "flag" && x.Name != "fs") {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						flags[name] = true
					}
					break
				}
			}
			return true
		})
	}
	return flags
}
