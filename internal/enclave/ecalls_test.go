package enclave

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/ecalls.golden from the current ECALL set")

// TestECallInventory pins the enclave's trust boundary: the signature of
// every Ecall* method of *IBBEEnclave, one line each in name order, must
// match testdata/ecalls.golden. An ECALL added, removed or reshaped shows
// up as a diff of that file (`go test ./internal/enclave -run
// TestECallInventory -update` rewrites it), so the TCB's surface only
// changes on purpose.
func TestECallInventory(t *testing.T) {
	got := ecallSignatures()
	path := filepath.Join("testdata", "ecalls.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("ECALL surface differs from %s (rerun with -update if the change is intended):\ngot:\n%swant:\n%s", path, got, want)
	}
}

// ecallSignatures lists every Ecall* method of *IBBEEnclave as
// "Name(params) results", one per line, in name order.
func ecallSignatures() string {
	typ := reflect.TypeOf(&IBBEEnclave{})
	var b strings.Builder
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		if !strings.HasPrefix(m.Name, "Ecall") {
			continue
		}
		var in, out []string
		for j := 1; j < m.Type.NumIn(); j++ { // In(0) is the receiver
			in = append(in, m.Type.In(j).String())
		}
		for j := 0; j < m.Type.NumOut(); j++ {
			out = append(out, m.Type.Out(j).String())
		}
		results := strings.Join(out, ", ")
		if len(out) > 1 {
			results = "(" + results + ")"
		}
		fmt.Fprintf(&b, "%s(%s)", m.Name, strings.Join(in, ", "))
		if results != "" {
			b.WriteString(" " + results)
		}
		b.WriteString("\n")
	}
	return b.String()
}
