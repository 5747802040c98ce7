package ibbesgx

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestImportBoundaries is the import guard over every non-test Go file of
// the root package, internal/, cmd/ and examples/:
//   - only internal/benchmark (and the package itself) imports the
//     reference IBBE scheme ibberef, which is test and benchmark code and
//     never on a product path;
//   - internal/enclave imports neither the hybrid-encryption baseline nor
//     the IBE scheme under it.
func TestImportBoundaries(t *testing.T) {
	const module = "github.com/ibbesgx/ibbesgx/"
	var files []string
	for _, dir := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				files = append(files, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	top, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range top {
		if !e.IsDir() {
			files = append(files, e.Name())
		}
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			imp = strings.TrimPrefix(imp, module)
			if imp == "internal/ibbe/ibberef" && dir != "internal/benchmark" && dir != "internal/ibbe/ibberef" {
				t.Errorf("%s imports the reference scheme %s", path, imp)
			}
			if dir == "internal/enclave" && (imp == "internal/hybrid" || imp == "internal/ibe") {
				t.Errorf("%s imports the HE baseline's %s", path, imp)
			}
		}
	}
}
