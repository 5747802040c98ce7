// Command benchdiff is the CI crypto-regression guard: it compares a freshly
// measured crypto report (ibbe-bench -scale paper -json ... crypto) against
// the committed baseline and fails when an op's fast path regressed beyond
// the allowed fraction.
//
// Usage:
//
//	benchdiff -old BENCH_crypto.json -new BENCH_crypto.fresh.json [-max-regress 0.15]
//
// Only fast_ns_per_op is gated — the reference ("slow") arm exists for
// differential correctness, not performance, and gating it would make the
// guard flake on big.Int noise. Rows are matched by (op, m); an op present
// in the baseline but missing from the fresh run fails the guard (coverage
// silently lost), while a brand-new op is reported and skipped (no baseline
// to regress against). Per-op timings are minima over a second of calls on
// several key sets, so scheduling noise is one-sided and the threshold can
// stay tight; a box that is slower throughout still reads slower.
//
// An absolute ns/op baseline means something only on its machine, so both
// reports' env headers are printed. A report of another experiment, or a
// baseline and fresh run at different scales, is refused with exit status 2.
// The readpath and millionuser experiments gate themselves: ibbe-bench exits
// non-zero when one of their properties fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

type report struct {
	Experiment string          `json:"experiment"`
	Scale      string          `json:"scale"`
	Env        json.RawMessage `json:"env"` // the build and machine of the run
	Rows       json.RawMessage `json:"rows"`
}

// envLine renders a report's env header on one line.
func envLine(r *report) string {
	var b bytes.Buffer
	if json.Compact(&b, r.Env) != nil {
		return "no env recorded"
	}
	return b.String()
}

type cryptoRow struct {
	Op     string `json:"op"`
	M      int    `json:"m"`
	FastNs int64  `json:"fast_ns_per_op"`
}

type opKey struct {
	Op string
	M  int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: 0 when every gated row is within bounds, 1 on a
// regression, 2 when the inputs cannot be compared.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	oldPath := fs.String("old", "BENCH_crypto.json", "committed baseline report")
	newPath := fs.String("new", "", "freshly measured report to gate")
	maxRegress := fs.Float64("max-regress", 0.15, "maximum allowed fractional regression (0.15 = 15%)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *newPath == "" {
		fmt.Fprintln(stderr, "benchdiff: -new is required")
		return 2
	}
	oldRep, err := load(*oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	newRep, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if oldRep.Scale != newRep.Scale {
		fmt.Fprintf(stderr, "benchdiff: scale mismatch: baseline %q vs fresh %q\n", oldRep.Scale, newRep.Scale)
		return 2
	}

	fmt.Fprintln(stdout, "baseline:", envLine(oldRep))
	fmt.Fprintln(stdout, "fresh:   ", envLine(newRep))
	lines, failures, err := diffCrypto(oldRep, newRep, *maxRegress)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if len(failures) > 0 {
		fmt.Fprintf(stderr, "benchdiff: %d regression(s) beyond %.0f%%\n", len(failures), *maxRegress*100)
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: every op within %.0f%% of baseline\n", *maxRegress*100)
	return 0
}

// load reads a crypto report, refusing any other experiment's.
func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Experiment != "crypto" {
		return nil, fmt.Errorf("%s: experiment %q, only crypto reports are compared", path, r.Experiment)
	}
	if len(r.Rows) == 0 {
		return nil, fmt.Errorf("%s: no rows", path)
	}
	return &r, nil
}

// diffCrypto compares fresh against baseline per (op, m) and returns the
// printable comparison plus one entry per failed gate.
func diffCrypto(oldRep, newRep *report, maxRegress float64) (lines, failures []string, err error) {
	var oldRows, newRows []cryptoRow
	if err := json.Unmarshal(oldRep.Rows, &oldRows); err != nil {
		return nil, nil, fmt.Errorf("baseline rows: %w", err)
	}
	if err := json.Unmarshal(newRep.Rows, &newRows); err != nil {
		return nil, nil, fmt.Errorf("fresh rows: %w", err)
	}
	fresh := make(map[opKey]int64, len(newRows))
	for _, r := range newRows {
		fresh[opKey{r.Op, r.M}] = r.FastNs
	}
	lines = append(lines, fmt.Sprintf("      %12s  %5s  %14s  %14s  %8s", "op", "m", "baseline ns", "fresh ns", "ratio"))
	for _, base := range oldRows {
		k := opKey{base.Op, base.M}
		got, ok := fresh[k]
		if !ok {
			f := fmt.Sprintf("%s m=%d: present in baseline, missing from fresh run", base.Op, base.M)
			failures = append(failures, f)
			lines = append(lines, "FAIL  "+f)
			continue
		}
		delete(fresh, k)
		ratio := float64(got) / float64(base.FastNs)
		status := "  ok"
		if ratio > 1+maxRegress {
			failures = append(failures, fmt.Sprintf("%s m=%d: %d ns vs baseline %d ns (%.0f%% slower)",
				base.Op, base.M, got, base.FastNs, (ratio-1)*100))
			status = "FAIL"
		}
		lines = append(lines, fmt.Sprintf("%s  %12s  %5d  %14d  %14d  %7.2fx",
			status, base.Op, base.M, base.FastNs, got, ratio))
	}
	// Fresh rows with no baseline counterpart (new ops): reported, not gated.
	for _, r := range newRows {
		if _, ok := fresh[opKey{r.Op, r.M}]; ok {
			lines = append(lines, fmt.Sprintf(" new  %12s  %5d: no baseline yet, skipped", r.Op, r.M))
		}
	}
	return lines, failures, nil
}
