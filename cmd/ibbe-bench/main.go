// Command ibbe-bench regenerates every table and figure of the paper's
// evaluation section (§VI), plus the repo's own gated scenarios. Each
// subcommand prints the same rows/series the paper plots, plus a one-line
// "shape" summary restating the paper's claim for the produced data.
//
// Usage:
//
//	ibbe-bench [-scale ci|medium|paper] [-json out.json] \
//	           fig2|fig6|fig7a|fig7b|fig8a|fig8b|fig9|fig10|table1|epc|readpath|crypto|millionuser|all
//
// The ci scale (default) runs the whole suite in well under a minute on
// reduced grids with identical shapes; medium takes minutes; paper runs the
// full 512-bit, million-user grid of the original evaluation (hours in pure
// Go — the artifact used GMP assembly).
//
// -json writes the experiment's rows as a machine-readable report (the
// crypto, readpath and millionuser reports are what cmd/benchdiff compares
// against the committed BENCH_*.json baselines); it applies to a single
// experiment, not to "all".
//
// -cpuprofile writes a pprof CPU profile covering the whole run, for local
// profiling of the crypto substrate under the real workloads.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/benchmark"
)

// experiments lists every experiment once, in the order "all" runs them.
// Each runner prints its table and returns its rows (for -json).
var experiments = []struct {
	name string
	run  func(benchmark.Config, io.Writer) (any, error)
}{
	{"fig2", experiment(benchmark.RunFig2, benchmark.PrintFig2)},
	{"fig6", experiment(benchmark.RunFig6, benchmark.PrintFig6)},
	{"fig7a", experiment(benchmark.RunFig7a, benchmark.PrintFig7a)},
	{"fig7b", experiment(benchmark.RunFig7b, benchmark.PrintFig7b)},
	{"fig8a", experiment(benchmark.RunFig8a, benchmark.PrintFig8a)},
	{"fig8b", experiment(benchmark.RunFig8b, benchmark.PrintFig8b)},
	{"fig9", experiment(benchmark.RunFig9, benchmark.PrintFig9)},
	{"fig10", experiment(benchmark.RunFig10, benchmark.PrintFig10)},
	{"table1", experiment(benchmark.RunTable1, benchmark.PrintTable1)},
	{"epc", experiment(benchmark.RunEPCExperiment, benchmark.PrintEPC)},
	{"readpath", experiment(benchmark.RunReadPath, benchmark.PrintReadPath)},
	{"crypto", experiment(benchmark.RunCrypto, benchmark.PrintCrypto)},
	{"millionuser", experiment(benchmark.RunMillionUser, benchmark.PrintMillionUser)},
}

// experiment pairs a runner with its printer.
func experiment[R any](run func(benchmark.Config) (R, error), print func(io.Writer, R)) func(benchmark.Config, io.Writer) (any, error) {
	return func(cfg benchmark.Config, w io.Writer) (any, error) {
		rows, err := run(cfg)
		if err != nil {
			return nil, err
		}
		print(w, rows)
		return rows, nil
	}
}

func main() {
	scale := flag.String("scale", "ci", "experiment scale: ci, medium, paper")
	jsonPath := flag.String("json", "", "write the experiment's rows as JSON to this path")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this path")
	flag.Parse()
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ibbe-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ibbe-bench:", err)
			os.Exit(1)
		}
	}
	err := run(os.Stdout, *scale, *jsonPath, flag.Args())
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ibbe-bench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, scale, jsonPath string, args []string) error {
	cfg, ok := benchmark.ScaleByName(scale)
	if !ok {
		return fmt.Errorf("unknown scale %q (want ci, medium or paper)", scale)
	}
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	names = append(names, "all")
	if len(args) != 1 {
		return fmt.Errorf("want exactly one experiment: %s", strings.Join(names, ", "))
	}
	exp := args[0]

	if exp == "all" {
		if jsonPath != "" {
			return fmt.Errorf("-json applies to a single experiment, not all")
		}
		for _, e := range experiments {
			if _, err := timed(w, e.name, cfg, e.run); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		return nil
	}
	for _, e := range experiments {
		if e.name != exp {
			continue
		}
		rows, err := timed(w, exp, cfg, e.run)
		if err != nil {
			return err
		}
		if jsonPath != "" {
			if err := benchmark.WriteJSON(jsonPath, exp, scale, rows); err != nil {
				return fmt.Errorf("writing %s: %w", jsonPath, err)
			}
			fmt.Fprintf(w, "[rows written to %s]\n", jsonPath)
		}
		return nil
	}
	return fmt.Errorf("unknown experiment %q (want %s)", exp, strings.Join(names, ", "))
}

func timed(w io.Writer, name string, cfg benchmark.Config, f func(benchmark.Config, io.Writer) (any, error)) (any, error) {
	start := time.Now()
	rows, err := f(cfg, w)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	fmt.Fprintf(w, "[%s completed in %s]\n", name, time.Since(start).Round(time.Millisecond))
	return rows, nil
}
