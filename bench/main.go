// Command bench is the repository's benchmark: four seeded workloads, the
// end-to-end metrics a user of the system sees, and — in a separate traced
// run — a per-layer ledger measured from outside the product. See README.md
// in this directory.
//
//	go run ./bench [-workload <name>|all] [-seed N] [-seconds S | -ops N] [-trace 0|1] [-json out.json]
//	go run ./bench -compare a.json[,a2.json...] b.json[,b2.json...]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// env is the header of every report: where and on what the numbers were made.
type env struct {
	Hostname   string `json:"hostname"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Params     string `json:"params"`
	Capacity   int    `json:"partition_capacity"`
	// Workloads states each workload's shape and injected store delays.
	Workloads []envWorkload `json:"workloads"`
}

type envWorkload struct {
	Name       string  `json:"name"`
	Routed     bool    `json:"routed"`
	Groups     int     `json:"groups"`
	Members    int     `json:"members_per_group"`
	PutDelayMS float64 `json:"store_put_delay_ms"`
	GetDelayMS float64 `json:"store_get_delay_ms"`
	ThinkMS    float64 `json:"admin_think_ms"`
	ReadsPerS  float64 `json:"reads_per_s"`
}

// report is what -json writes and -compare reads.
type report struct {
	Env     env       `json:"env"`
	Results []*result `json:"results"`
}

func newEnv(sc scale, specs []spec) env {
	host, _ := os.Hostname()
	commit := "unknown" // a checkout without git history still runs
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	e := env{
		Hostname: host, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit,
		Params: sc.ParamsName, Capacity: sc.Capacity,
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, w := range specs {
		w = sc.sized(w)
		e.Workloads = append(e.Workloads, envWorkload{
			Name: w.Name, Routed: w.Routed, Groups: w.Groups, Members: w.Members,
			PutDelayMS: ms(w.Latency.Put), GetDelayMS: ms(w.Latency.Get),
			ThinkMS: ms(w.Think), ReadsPerS: w.ReadRate,
		})
	}
	return e
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 2018, "seed of the op stream and the reader's picks")
		seconds  = flag.Float64("seconds", 22, "how long the measured admin stream runs")
		ops      = flag.Int("ops", 0, "end the stream after exactly this many measured ops instead of -seconds (counters then repeat exactly)")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/trace-<workload>.json")
		jsonOut  = flag.String("json", "", "also write the full report (env header, every run) to this file")
		compare  = flag.Bool("compare", false, "compare two sets of -json reports: -compare a.json[,…] b.json[,…]")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json[,a2.json...] b.json[,b2.json...]")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	specs := workloads
	if *workload != "all" {
		w, err := lookupSpec(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		specs = []spec{w}
	}
	sc := paperScale()
	rep := report{Env: newEnv(sc, specs)}
	printEnv(os.Stdout, rep.Env)
	opts := runOpts{Seed: *seed, Seconds: *seconds, Ops: *ops, Traced: *trace != 0, OutDir: "bench/out"}
	ok := true
	for _, w := range specs {
		res, err := runWorkload(context.Background(), w, sc, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		rep.Results = append(rep.Results, res)
		printResult(os.Stdout, res)
		ok = ok && res.Correct
	}
	if *jsonOut != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(blob, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

func printEnv(w io.Writer, e env) {
	fmt.Fprintf(w, "# env host=%s nproc=%d GOMAXPROCS=%d go=%s commit=%s params=%s capacity=%d\n",
		e.Hostname, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.Commit, e.Params, e.Capacity)
	for _, wl := range e.Workloads {
		fmt.Fprintf(w, "# workload %s routed=%t groups=%d members=%d store_put_delay=%gms store_get_delay=%gms admin_think=%gms reads_per_s=%g\n",
			wl.Name, wl.Routed, wl.Groups, wl.Members, wl.PutDelayMS, wl.GetDelayMS, wl.ThinkMS, wl.ReadsPerS)
	}
}

// driverLine is the machine-readable summary of one run: the last line a
// single-workload invocation prints.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult prints every metric by name with unit, workload and sample
// count, then the run's one-line JSON summary.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "## %s seed=%d traced=%t ops=%d warmup_ops=%d stream_sha256=%s stream_prefix_sha256=%s\n",
		res.Workload, res.Seed, res.Traced, res.Ops, res.WarmupOps, res.StreamSHA256, res.StreamPrefixSHA256)
	line := driverLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]driverValue)}
	for _, m := range res.Metrics {
		fmt.Fprintf(w, "%-16s %-36s %14.4f %-7s n=%d\n", res.Workload, m.Name, m.Value, m.Unit, m.N)
		line.Metrics[m.Name] = driverValue{Value: m.Value, Unit: m.Unit}
	}
	if res.BoxSpeed != 0 {
		fmt.Fprintf(w, "%-16s timings above are reported at the reference box's speed; this box ran at %.4f of it (CPU-bound workload, see boxspeed.go)\n", res.Workload, res.BoxSpeed)
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "%-16s VIOLATION %s\n", res.Workload, v)
	}
	blob, _ := json.Marshal(line) // plain numbers and strings always encode
	fmt.Fprintf(w, "%s\n", blob)
}
