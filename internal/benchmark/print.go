package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// Bytes renders a byte count with binary units, as the paper's size axes.
func Bytes(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Dur renders a duration rounded for table display.
func Dur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return d.Round(time.Second).String()
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}

// PrintFig2 writes the Fig. 2 table.
func PrintFig2(w io.Writer, rows []Fig2Row) {
	fmt.Fprintln(w, "Figure 2 — raw schemes, group creation latency (a) and metadata expansion (b)")
	fmt.Fprintf(w, "%10s  %14s  %14s  %14s  %12s  %12s  %12s\n",
		"users", "HE-PKI", "HE-IBE", "IBBE", "HE-PKI size", "HE-IBE size", "IBBE size")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d  %14s  %14s  %14s  %12s  %12s  %12s\n",
			r.N, Dur(r.HEPKICreate), Dur(r.HEIBECreate), Dur(r.IBBECreate),
			Bytes(r.HEPKIBytes), Bytes(r.HEIBEBytes), Bytes(r.IBBEBytes))
	}
	if len(rows) > 1 {
		last := rows[len(rows)-1]
		fmt.Fprintf(w, "shape: IBBE %.0f× slower than HE-PKI at n=%d; IBBE metadata constant, HE linear (%.1f orders smaller)\n",
			float64(last.IBBECreate)/float64(max64(1, int64(last.HEPKICreate))), last.N,
			OrdersOfMagnitude(float64(last.HEPKIBytes), float64(last.IBBEBytes)))
	}
}

// PrintFig6 writes the Fig. 6 table.
func PrintFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "Figure 6 — bootstrap: system setup latency (a), key-extract throughput (b)")
	fmt.Fprintf(w, "%14s  %16s  %18s\n", "partition size", "setup latency", "extract (op/s)")
	for _, r := range rows {
		fmt.Fprintf(w, "%14d  %16s  %18.0f\n", r.M, Dur(r.SetupLatency), r.ExtractOpsPerSec)
	}
}

// PrintFig7a writes the Fig. 7a table.
func PrintFig7a(w io.Writer, rows []Fig7aRow) {
	fmt.Fprintln(w, "Figure 7a — IBBE-SGX vs HE: create, remove, storage footprint")
	fmt.Fprintf(w, "%10s  %12s  %12s  %12s  %12s  %12s  %12s\n",
		"group", "IBBE create", "HE create", "IBBE remove", "HE remove", "IBBE bytes", "HE bytes")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d  %12s  %12s  %12s  %12s  %12s  %12s\n",
			r.N, Dur(r.IBBECreate), Dur(r.HECreate), Dur(r.IBBERemove), Dur(r.HERemove),
			Bytes(r.IBBEBytes), Bytes(r.HEBytes))
	}
	if len(rows) > 0 {
		last := rows[len(rows)-1]
		fmt.Fprintf(w, "shape at n=%d: create %.1f orders faster, remove %.1f orders faster, footprint %.1f orders smaller\n",
			last.N,
			OrdersOfMagnitude(float64(last.HECreate), float64(last.IBBECreate)),
			OrdersOfMagnitude(float64(last.HERemove), float64(last.IBBERemove)),
			OrdersOfMagnitude(float64(last.HEBytes), float64(last.IBBEBytes)))
	}
}

// PrintFig7b writes the Fig. 7b table.
func PrintFig7b(w io.Writer, rows []Fig7bRow) {
	fmt.Fprintln(w, "Figure 7b — IBBE-SGX across partition sizes")
	fmt.Fprintf(w, "%10s  %14s  %12s  %12s  %12s\n", "group", "partition", "create", "remove", "footprint")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d  %14d  %12s  %12s  %12s\n", r.N, r.M, Dur(r.Create), Dur(r.Remove), Bytes(r.Bytes))
	}
}

// PrintFig8a writes the Fig. 8a CDF table.
func PrintFig8a(w io.Writer, res *Fig8aResult) {
	fmt.Fprintln(w, "Figure 8a — CDF of add-user latency")
	fmt.Fprintf(w, "%6s  %14s  %14s\n", "CDF", "IBBE-SGX", "HE")
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.8, 0.9, 0.95, 0.99} {
		fmt.Fprintf(w, "%6.2f  %14s  %14s\n", q, Dur(res.IBBE.Quantile(q)), Dur(res.HE.Quantile(q)))
	}
	fmt.Fprintf(w, "adds that opened a new partition (slow mode): %d of %d\n",
		res.NewPartitionAdds, res.IBBE.Len())
	fmt.Fprintf(w, "shape: HE median %s vs IBBE-SGX median %s (paper: HE ≈ 2× faster)\n",
		Dur(res.HE.Quantile(0.5)), Dur(res.IBBE.Quantile(0.5)))
}

// PrintFig8b writes the Fig. 8b table.
func PrintFig8b(w io.Writer, rows []Fig8bRow) {
	fmt.Fprintln(w, "Figure 8b — client decryption latency per partition size")
	fmt.Fprintf(w, "%14s  %14s  %14s\n", "partition size", "IBBE-SGX", "HE")
	for _, r := range rows {
		fmt.Fprintf(w, "%14d  %14s  %14s\n", r.M, Dur(r.IBBEDecrypt), Dur(r.HEDecrypt))
	}
	if len(rows) > 1 {
		first, last := rows[0], rows[len(rows)-1]
		fmt.Fprintf(w, "shape: IBBE decrypt grows %s → %s (quadratic); HE stays flat\n",
			Dur(first.IBBEDecrypt), Dur(last.IBBEDecrypt))
	}
}

// PrintFig9 writes the Fig. 9 table.
func PrintFig9(w io.Writer, rows []Fig9Row) {
	fmt.Fprintln(w, "Figure 9 — Linux-kernel ACL trace replay")
	fmt.Fprintf(w, "%10s  %10s  %16s  %16s  %14s\n", "scheme", "partition", "admin total", "avg decrypt", "repartitions")
	for _, r := range rows {
		m := "-"
		if r.M > 0 {
			m = fmt.Sprintf("%d", r.M)
		}
		fmt.Fprintf(w, "%10s  %10s  %16s  %16s  %14d\n", r.Scheme, m, Dur(r.AdminTotal), Dur(r.AvgDecrypt), r.Repartitions)
	}
}

// PrintFig10 writes the Fig. 10 table.
func PrintFig10(w io.Writer, rows []Fig10Row) {
	fmt.Fprintln(w, "Figure 10 — synthetic workloads per revocation rate")
	fmt.Fprintf(w, "%10s  %6s  %16s\n", "partition", "rate", "total replay")
	for _, r := range rows {
		fmt.Fprintf(w, "%10d  %5.0f%%  %16s\n", r.M, r.Rate*100, Dur(r.Total))
	}
}

// PrintTable1 writes the Table I reproduction.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "Table I — measured complexity exponents (log-log slope of op counts)")
	fmt.Fprintf(w, "%-36s  %10s %-10s  %10s %-10s\n", "operation", "IBBE-SGX", "(claim)", "IBBE", "(claim)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s  %10.2f %-10s  %10.2f %-10s\n",
			r.Operation, r.IBBESGXSlope, r.IBBESGXClaim, r.ClassicSlope, r.ClassicClaim)
	}
}

// Env is the build and machine a report was measured on: an absolute
// timing means something only next to it, so every report carries one.
type Env struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu,omitempty"` // model name, where /proc/cpuinfo has one
	Params     string `json:"params"`
}

// cpuModel returns the first "model name" in /proc/cpuinfo, or "" where
// the file or the field is missing.
func cpuModel() string {
	data, _ := os.ReadFile("/proc/cpuinfo")
	_, field, _ := strings.Cut(string(data), "\nmodel name")
	_, value, _ := strings.Cut(field, ":")
	line, _, _ := strings.Cut(value, "\n")
	return strings.TrimSpace(line)
}

// WriteJSON emits one experiment's rows, measured with the named pairing
// params, as a machine-readable report headed by this process's Env.
func WriteJSON(path, experiment, scale, params string, rows any) error {
	report := struct {
		Experiment string `json:"experiment"`
		Scale      string `json:"scale"`
		Env        Env    `json:"env"`
		Rows       any    `json:"rows"`
	}{experiment, scale, Env{
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), params,
	}, rows}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
