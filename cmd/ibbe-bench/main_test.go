package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/benchmark"
)

func TestUnknownAndRetiredExperimentsAreErrors(t *testing.T) {
	for _, name := range []string{"nope", "cluster", "rebalance", "autoscale", "dkg", "parallel", "batch"} {
		err := run(io.Discard, "ci", "", []string{name})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("%s: err = %v, want unknown experiment", name, err)
		}
	}
	if err := run(io.Discard, "ci", "", nil); err == nil {
		t.Error("no experiment: want an error")
	}
	if err := run(io.Discard, "nope", "", []string{"fig6"}); err == nil {
		t.Error("unknown scale: want an error")
	}
}

func TestJSONWithAllIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := run(io.Discard, "ci", path, []string{"all"}); err == nil {
		t.Fatal("-json with all: want an error")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("-json with all wrote %s (stat err %v)", path, err)
	}
}

func TestJSONReportParses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fig6.json")
	var out strings.Builder
	if err := run(&out, "ci", path, []string{"fig6"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 6") {
		t.Fatalf("fig6 printed no table:\n%s", out.String())
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Experiment string            `json:"experiment"`
		Scale      string            `json:"scale"`
		Env        benchmark.Env     `json:"env"`
		Rows       []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(blob, &report); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, blob)
	}
	if report.Experiment != "fig6" || report.Scale != "ci" || len(report.Rows) == 0 {
		t.Fatalf("report = %q/%q with %d rows, want fig6/ci with rows", report.Experiment, report.Scale, len(report.Rows))
	}
	if env := report.Env; env.Go != runtime.Version() || env.NumCPU < 1 || env.GOMAXPROCS < 1 || env.Params != "type-a-160" {
		t.Fatalf("env header = %+v, want this build and the ci params", env)
	}
}

// TestDocCommentListsEveryExperiment keeps the usage line of the package
// doc comment in step with the experiments table.
func TestDocCommentListsEveryExperiment(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	var usage string
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		if strings.HasSuffix(line, "|all") {
			usage = strings.TrimSpace(line)
		}
	}
	if usage == "" {
		t.Fatalf("doc comment has no usage line ending in |all:\n%s", f.Doc.Text())
	}
	want := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		want = append(want, e.name)
	}
	want = append(want, "all")
	if got := strings.Join(want, "|"); usage != got {
		t.Fatalf("doc comment lists\n  %s\nthe table runs\n  %s", usage, got)
	}
}
