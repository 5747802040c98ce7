package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rep(t *testing.T, rows ...cryptoRow) *report {
	t.Helper()
	raw, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return &report{Experiment: "crypto", Scale: "ci", Rows: raw}
}

func TestDiffPassesWithinThreshold(t *testing.T) {
	old := rep(t, cryptoRow{"EncryptMSK", 256, 100_000}, cryptoRow{"Decrypt", 256, 5_000_000})
	fresh := rep(t, cryptoRow{"EncryptMSK", 256, 110_000}, cryptoRow{"Decrypt", 256, 4_000_000})
	_, failures, err := diffCrypto(old, fresh, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
}

func TestDiffFlagsRegression(t *testing.T) {
	old := rep(t, cryptoRow{"EncryptMSK", 256, 100_000})
	fresh := rep(t, cryptoRow{"EncryptMSK", 256, 120_000})
	_, failures, err := diffCrypto(old, fresh, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 {
		t.Fatalf("failures = %v, want exactly the 20%% regression", failures)
	}
	if !strings.Contains(failures[0], "EncryptMSK m=256") {
		t.Fatalf("failure does not name the op: %q", failures[0])
	}
}

func TestDiffFailsOnLostCoverage(t *testing.T) {
	old := rep(t, cryptoRow{"EncryptMSK", 256, 100_000}, cryptoRow{"Rekey", 256, 90_000})
	fresh := rep(t, cryptoRow{"EncryptMSK", 256, 100_000})
	_, failures, err := diffCrypto(old, fresh, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "missing from fresh run") {
		t.Fatalf("lost coverage not flagged: %v", failures)
	}
}

func TestDiffSkipsNewOps(t *testing.T) {
	old := rep(t, cryptoRow{"EncryptMSK", 256, 100_000})
	fresh := rep(t, cryptoRow{"EncryptMSK", 256, 100_000}, cryptoRow{"Extract", 256, 50_000})
	lines, failures, err := diffCrypto(old, fresh, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Fatalf("new op treated as failure: %v", failures)
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "no baseline yet") {
		t.Fatalf("new op not reported:\n%s", joined)
	}
}

// writeReport writes r where run can read it and returns the path.
func writeReport(t *testing.T, name string, r *report) string {
	t.Helper()
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRefusesNonCryptoReport(t *testing.T) {
	old := writeReport(t, "old.json", rep(t, cryptoRow{"EncryptMSK", 256, 100_000}))
	other := &report{Experiment: "readpath", Scale: "ci", Rows: json.RawMessage(`[{"mode":"cached"}]`)}
	fresh := writeReport(t, "fresh.json", other)
	var stderr strings.Builder
	if code := run([]string{"-old", old, "-new", fresh}, io.Discard, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2 for a readpath report", code)
	}
	if !strings.Contains(stderr.String(), `experiment "readpath"`) {
		t.Fatalf("refusal does not name the experiment: %q", stderr.String())
	}
}

func TestRefusesScaleMismatch(t *testing.T) {
	base := rep(t, cryptoRow{"EncryptMSK", 256, 100_000})
	old := writeReport(t, "old.json", base)
	base.Scale = "paper"
	fresh := writeReport(t, "fresh.json", base)
	var stderr strings.Builder
	if code := run([]string{"-old", old, "-new", fresh}, io.Discard, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2 for a ci baseline against a paper run", code)
	}
	if !strings.Contains(stderr.String(), "scale mismatch") {
		t.Fatalf("refusal does not name the scale: %q", stderr.String())
	}
	// The same reports at one scale compare, and pass.
	if code := run([]string{"-old", fresh, "-new", fresh}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("exit %d comparing a report with itself, want 0", code)
	}
}
