package benchmark

import (
	"math"
	"testing"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/pairing"
)

// tinyConfig shrinks the CI grid further for unit testing.
func tinyConfig() Config {
	cfg := CIScale()
	cfg.GroupSizes = []int{8, 16, 32}
	cfg.PartitionSizes = []int{4, 8, 16}
	cfg.Capacity = 8
	cfg.AddSamples = 24
	cfg.ExtractSamples = 8
	cfg.KernelOps = 200
	cfg.KernelPeak = 20
	cfg.Fig9Partitions = []int{5, 10}
	cfg.SyntheticOps = 40
	cfg.SyntheticInitial = 50
	cfg.Fig10Partitions = []int{8}
	return cfg
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"ci", "", "medium", "paper"} {
		if _, ok := ScaleByName(name); !ok {
			t.Fatalf("scale %q unknown", name)
		}
	}
	if _, ok := ScaleByName("nope"); ok {
		t.Fatal("unknown scale accepted")
	}
}

func TestFig2ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure replay: skipped in -short CI runs")
	}
	rows, err := RunFig2(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i, r := range rows {
		// IBBE metadata constant; HE metadata linear in n.
		if r.IBBEBytes != rows[0].IBBEBytes {
			t.Fatal("IBBE metadata is not constant")
		}
		if i > 0 {
			prev := rows[i-1]
			if r.HEPKIBytes <= prev.HEPKIBytes || r.HEIBEBytes <= prev.HEIBEBytes {
				t.Fatal("HE metadata did not grow with the group")
			}
		}
	}
	last := rows[len(rows)-1]
	if last.HEPKIBytes <= last.IBBEBytes {
		t.Fatal("HE metadata not larger than IBBE's")
	}
	// Raw IBBE creation must be slower than HE-PKI (the paper's 150×
	// motivates the whole construction; at tiny scale we only require >1×).
	if last.IBBECreate <= last.HEPKICreate {
		t.Fatalf("raw IBBE (%v) not slower than HE-PKI (%v)", last.IBBECreate, last.HEPKICreate)
	}
}

func TestFig6ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure replay: skipped in -short CI runs")
	}
	// Setup is O(m) fixed-base exponentiations at ~15µs each on the limb
	// fast path, on top of a few milliseconds of constant-cost generator
	// sampling and pairing work. The grid must reach partition sizes where
	// the linear term clears that constant, or the latency ordering drowns
	// in noise.
	cfg := tinyConfig()
	cfg.PartitionSizes = []int{16, 128, 1024}
	rows, err := RunFig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Setup latency grows with partition size.
	if rows[len(rows)-1].SetupLatency <= rows[0].SetupLatency {
		t.Fatal("setup latency not increasing in partition size")
	}
	// Extraction throughput is flat in m: asserted on what an extraction
	// computes — one constant-time fixed-base G1 exponentiation and no
	// pairing, at every m — not on a throughput ratio, which on a shared
	// box measures the neighbours.
	for _, r := range rows {
		if r.ExtractOpsPerSec <= 0 {
			t.Fatal("non-positive extract throughput")
		}
		if len(r.ExtractOps) != cfg.ExtractSamples {
			t.Fatalf("m=%d: %d extractions counted, want %d", r.M, len(r.ExtractOps), cfg.ExtractSamples)
		}
		for i, n := range r.ExtractOps {
			if n != (OpCount{G1Exp: 1, G1ExpFixedCT: 1}) {
				t.Fatalf("m=%d: extraction %d ran %+v, want one constant-time fixed-base exponentiation", r.M, i, n)
			}
		}
		t.Logf("m=%d: extract %.0f op/s", r.M, r.ExtractOpsPerSec)
	}
}

func TestFig7aShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure replay: skipped in -short CI runs")
	}
	// The remove crossover (HE O(n) vs IBBE-SGX O(n/m)) needs the group to
	// be a healthy multiple of the partition size: pairing operations cost
	// far more than P-256 ones, so n/m must outgrow the constant ratio.
	cfg := tinyConfig()
	cfg.Capacity = 64
	cfg.GroupSizes = []int{64, 512}
	rows, err := RunFig7a(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	// Footprint: IBBE-SGX orders of magnitude smaller, and constant per
	// partition rather than per member.
	if last.IBBEBytes >= last.HEBytes {
		t.Fatal("IBBE-SGX footprint not smaller than HE")
	}
	// Remove: HE is O(n); IBBE-SGX is O(|P|). At the largest group the HE
	// remove must be slower.
	if last.HERemove <= last.IBBERemove {
		t.Fatalf("HE remove (%v) not slower than IBBE-SGX (%v) at n=%d",
			last.HERemove, last.IBBERemove, last.N)
	}
}

func TestFig8aShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure replay: skipped in -short CI runs")
	}
	// The paper's HE ≈ 2× faster add is a wall-clock ratio between two
	// constants, and at type-a-512 on this code the two are close enough
	// to trade places run to run. What the figure rests on is that both
	// adds are O(1): asserted on operation counts, which are exact, at two
	// group sizes (4 partitions of 8 and of 32 members, each growing by the
	// add stream). The medians are logged.
	var heBox int
	for _, capacity := range []int{8, 32} {
		cfg := tinyConfig()
		cfg.Params = pairing.TypeA512()
		cfg.Capacity = capacity
		res, err := RunFig8a(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.IBBE.Len() != res.HE.Len() || res.IBBE.Len() == 0 || len(res.IBBEAddOps) != res.IBBE.Len() {
			t.Fatal("CDF sample counts broken")
		}
		t.Logf("n=%d: median add: HE %v, IBBE-SGX %v", 4*capacity, res.HE.Quantile(0.5), res.IBBE.Quantile(0.5))
		// Both arms of Algorithm 2 must have been exercised.
		if res.NewPartitionAdds == 0 || res.NewPartitionAdds == res.IBBE.Len() {
			t.Fatalf("add stream not bimodal: %d/%d new partitions", res.NewPartitionAdds, res.IBBE.Len())
		}
		for i, n := range res.IBBEAddOps {
			if res.NewPartition[i] {
				continue
			}
			// An add to an existing partition: C2 = h^{kΠ'} and
			// C3 = h^{Π'} from the fixed-base tables, nothing else.
			if n != (OpCount{G1Exp: 2, G1ExpFixedCT: 2}) {
				t.Fatalf("n=%d: add %d to an existing partition ran %+v, want two constant-time fixed-base exponentiations", 4*capacity, i, n)
			}
		}
		// An HE add wraps the group key for the joiner alone: one box of
		// the same size whatever the group size.
		for i, b := range res.HEAddBytes {
			if heBox == 0 {
				heBox = b
			}
			if b <= 0 || b != heBox {
				t.Fatalf("n=%d: HE add %d wrote %d metadata bytes, want one %d-byte box", 4*capacity, i, b, heBox)
			}
		}
	}
}

func TestFig8bShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure replay: skipped in -short CI runs")
	}
	cfg := tinyConfig()
	cfg.PartitionSizes = []int{16, 64, 256}
	rows, err := RunFig8b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// IBBE decrypt is quadratic in the partition size: asserted on the Z_r
	// multiplications of the polynomial expansion, not on sub-millisecond
	// wall-clock medians (at CI scale the pairing constant hides the
	// quadratic term from the clock; it never hides it from the count). HE
	// decrypt is one ECIES open whatever the size, so its latency must stay
	// far below that growth.
	for i := 1; i < len(rows); i++ {
		if rows[i].IBBEDecryptZrMul <= rows[i-1].IBBEDecryptZrMul {
			t.Fatalf("IBBE decrypt work not growing with partition size: %+v", rows)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	growth := float64(last.IBBEDecryptZrMul) / float64(first.IBBEDecryptZrMul)
	ratio := float64(last.M) / float64(first.M)
	if growth < ratio*ratio/2 {
		t.Fatalf("IBBE decrypt work grew %.1f× over a %.0fx partition range — not quadratic", growth, ratio)
	}
	heGrowth := float64(last.HEDecrypt) / float64(first.HEDecrypt)
	if heGrowth > growth/4 {
		t.Fatalf("HE decrypt not flat: grew %.1f×", heGrowth)
	}
}

func TestFig9ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure replay: skipped in -short CI runs")
	}
	rows, err := RunFig9(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ibbeRows []Fig9Row
	var heRow *Fig9Row
	for i := range rows {
		if rows[i].Scheme == "he-pki" {
			heRow = &rows[i]
		} else {
			ibbeRows = append(ibbeRows, rows[i])
		}
	}
	if heRow == nil || len(ibbeRows) != 2 {
		t.Fatalf("unexpected row shape: %+v", rows)
	}
	// Larger partitions → cheaper admin replay (fewer partitions to re-key),
	// costlier decrypts (quadratic in m). Asserted on operation counts: the
	// replay is seeded, so they are exact, where the sub-millisecond timings
	// they explain reorder under scheduler noise.
	if ibbeRows[1].AdminG1Exp >= ibbeRows[0].AdminG1Exp {
		t.Fatalf("larger partition did not cut the admin's G1 exponentiations: %d vs %d",
			ibbeRows[0].AdminG1Exp, ibbeRows[1].AdminG1Exp)
	}
	if ibbeRows[1].ZrMulPerDecrypt <= ibbeRows[0].ZrMulPerDecrypt {
		t.Fatalf("larger partition did not raise the Z_r multiplications per decrypt: %.0f vs %.0f",
			ibbeRows[0].ZrMulPerDecrypt, ibbeRows[1].ZrMulPerDecrypt)
	}
	if ibbeRows[0].AdminTotal <= 0 || ibbeRows[0].AvgDecrypt <= 0 || heRow.AdminTotal <= 0 {
		t.Fatalf("replay timings missing: %+v", rows)
	}
}

func TestFig10ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("figure replay: skipped in -short CI runs")
	}
	cfg := tinyConfig()
	rows, err := RunFig10(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11*len(cfg.Fig10Partitions) {
		t.Fatalf("rows = %d", len(rows))
	}
	// The well-formed claim at any scale: replay with revocations is more
	// expensive than the pure-add workload (rate 0).
	if rows[5].Total <= rows[0].Total {
		t.Fatalf("50%% revocations (%v) not costlier than 0%% (%v)", rows[5].Total, rows[0].Total)
	}
}

func TestTable1ComplexityShape(t *testing.T) {
	rows, err := RunTable1(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct{ sgx, classic float64 }{
		"Create Group Key (per partition)": {1, 2},
		"Add User to Group":                {0, 2},
		"Remove User (per partition)":      {0, 2},
		"Decrypt Group Key":                {2, 2},
		"Extract User Key":                 {0, 0},
		"System Setup":                     {1, 1},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		w, ok := want[r.Operation]
		if !ok {
			t.Fatalf("unexpected operation %q", r.Operation)
		}
		if math.Abs(r.IBBESGXSlope-w.sgx) > 0.35 {
			t.Fatalf("%s: IBBE-SGX slope %.2f, want ≈ %.0f", r.Operation, r.IBBESGXSlope, w.sgx)
		}
		if math.Abs(r.ClassicSlope-w.classic) > 0.35 {
			t.Fatalf("%s: classic slope %.2f, want ≈ %.0f", r.Operation, r.ClassicSlope, w.classic)
		}
	}
}

func TestCDFBasics(t *testing.T) {
	samples := []time.Duration{4, 1, 3, 2, 5}
	c := NewCDF(samples)
	if c.Quantile(0) != 1 || c.Quantile(1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if c.Quantile(0.5) != 3 {
		t.Fatalf("median = %v", c.Quantile(0.5))
	}
	if c.Mean() != 3 {
		t.Fatalf("mean = %v", c.Mean())
	}
	if got := c.At(3); got != 0.6 {
		t.Fatalf("CDF(3) = %f", got)
	}
	empty := NewCDF(nil)
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 || empty.At(1) != 0 {
		t.Fatal("empty CDF not zero-valued")
	}
}

func TestLogLogSlope(t *testing.T) {
	// Quadratic data → slope 2.
	xs := []float64{2, 4, 8, 16}
	ys := []float64{4, 16, 64, 256}
	slope, err := LogLogSlope(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-9 {
		t.Fatalf("slope = %f", slope)
	}
	if _, err := LogLogSlope([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single point accepted")
	}
	if _, err := LogLogSlope([]float64{1, -1}, []float64{1, 1}); err == nil {
		t.Fatal("negative value accepted")
	}
	if _, err := LogLogSlope([]float64{3, 3}, []float64{1, 2}); err == nil {
		t.Fatal("degenerate x accepted")
	}
}

func TestSampleAveragesAndPropagates(t *testing.T) {
	calls := 0
	d, err := Sample(4, func() error { calls++; return nil })
	if err != nil || calls != 4 || d < 0 {
		t.Fatalf("Sample: %v %d %v", err, calls, d)
	}
	// iters < 1 still runs once; errors propagate.
	calls = 0
	if _, err := Sample(0, func() error { calls++; return errBoom }); err == nil || calls != 1 {
		t.Fatalf("Sample error path: %v %d", err, calls)
	}
}

var errBoom = errTest("boom")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestBytesAndDurFormatting(t *testing.T) {
	cases := map[int]string{
		512:     "512 B",
		2048:    "2.00 KiB",
		3 << 20: "3.00 MiB",
		5 << 30: "5.00 GiB",
	}
	for in, want := range cases {
		if got := Bytes(in); got != want {
			t.Fatalf("Bytes(%d) = %q, want %q", in, got, want)
		}
	}
	if Dur(90*time.Second) != "1m30s" {
		t.Fatalf("Dur = %q", Dur(90*time.Second))
	}
}

func TestOrdersOfMagnitude(t *testing.T) {
	if got := OrdersOfMagnitude(1_000_000, 1); math.Abs(got-6) > 1e-9 {
		t.Fatalf("orders = %f", got)
	}
	if OrdersOfMagnitude(0, 1) != 0 {
		t.Fatal("degenerate input not zero")
	}
}

func TestRatioFormatting(t *testing.T) {
	if Ratio(2*time.Second, time.Second) != "2.0×" {
		t.Fatal("Ratio broken")
	}
	if Ratio(time.Second, 0) != "∞×" {
		t.Fatal("Ratio division by zero")
	}
}
