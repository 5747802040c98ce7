package benchmark

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/ibbe/ibberef"
)

// CryptoRow is one cell of the crypto fast-path figure: a single IBBE
// operation at receiver-set size m, timed through the reference scheme
// (package ibberef, "slow": double-and-add scalar multiplication,
// per-coefficient HPowers loop, square-and-multiply GT ladder, big.Int
// identity hashing with no memo) and through the product scheme (w-NAF
// windows, fixed-base tables, interleaved Straus multi-exponentiation, batch
// normalisation, identity hashes reduced straight into Z_r's limbs behind a
// fixed two-way memo) that underlies every partition ECALL.
type CryptoRow struct {
	Op    string `json:"op"`
	M     int    `json:"m"`
	Iters int    `json:"iters"`

	SlowNs int64 `json:"slow_ns_per_op"`
	FastNs int64 `json:"fast_ns_per_op"`

	// Heap allocations per call, averaged over the timing loop. The limb
	// fast path works in fixed-width stack arrays, so its counts expose any
	// accidental big.Int round-trips the ns column might hide in noise.
	SlowAllocs int64 `json:"slow_allocs_per_op"`
	FastAllocs int64 `json:"fast_allocs_per_op"`

	Speedup float64 `json:"speedup"`
}

// cryptoSizes is the m sweep of the crypto figure. 256 is deliberately far
// past the CI partition sizes: the multi-exponentiation advantage grows with
// m, and the acceptance bar (≥3× EncryptMSK, ≥2× Decrypt) is set there.
var cryptoSizes = []int{8, 64, 256}

// cryptoIters picks the per-op iteration count so the slow arm stays
// CI-friendly even at m = 256.
func cryptoIters(m int) int {
	switch {
	case m <= 8:
		return 12
	case m <= 64:
		return 6
	default:
		return 3
	}
}

// RunCrypto measures Setup, EncryptMSK, Decrypt and Rekey on the reference
// scheme vs the product scheme, on the same key material. Both arms run
// against the same msk/pk/ciphertext inputs, so every measured pair
// computes the identical group elements (the differential tests in
// internal/ibbe assert exactly that, bit for bit); only the arithmetic
// differs. Each arm gets one
// untimed warm-up call: for the fast arm that builds the per-key tables the
// steady state of a long-lived partition key runs on.
func RunCrypto(cfg Config) ([]CryptoRow, error) {
	rows := make([]CryptoRow, 0, 4*len(cryptoSizes))
	for _, m := range cryptoSizes {
		slow := ibberef.New(cfg.Params)
		fast := ibbe.NewScheme(cfg.Params)

		row := func(op string, iters int, slowFn, fastFn func() error) (CryptoRow, error) {
			r := CryptoRow{Op: op, M: m, Iters: iters}
			var err error
			if r.SlowNs, r.SlowAllocs, err = timePerOp(iters, slowFn); err != nil {
				return r, fmt.Errorf("%s m=%d slow: %w", op, m, err)
			}
			if r.FastNs, r.FastAllocs, err = timePerOp(iters, fastFn); err != nil {
				return r, fmt.Errorf("%s m=%d fast: %w", op, m, err)
			}
			if r.FastNs > 0 {
				r.Speedup = float64(r.SlowNs) / float64(r.FastNs)
			}
			return r, nil
		}

		// Setup: timed on fresh keys each iteration, so the fast arm pays its
		// fixed-base table construction inside the measurement.
		r, err := row("Setup", cryptoIters(m),
			func() error { _, _, err := slow.Setup(m, nil); return err },
			func() error { _, _, err := fast.Setup(m, nil); return err })
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)

		// The remaining operations share one key set and one ciphertext, so
		// the two arms time the very same mathematical operation.
		msk, pk, err := fast.Setup(m, nil)
		if err != nil {
			return nil, err
		}
		group := names(m, "crypto")
		uk, err := fast.Extract(msk, group[0])
		if err != nil {
			return nil, err
		}
		_, ct, err := fast.EncryptMSK(msk, pk, group, nil)
		if err != nil {
			return nil, err
		}

		// EncryptMSK and Rekey stay cheap at every m (that is the point of
		// the scheme), so they get a fixed, higher iteration count; Decrypt
		// is quadratic in m and scales its count down like Setup.
		ops := []struct {
			name       string
			iters      int
			slow, fast func() error
		}{
			{"EncryptMSK", 12,
				func() error { _, _, err := slow.EncryptMSK(msk, pk, group, nil); return err },
				func() error { _, _, err := fast.EncryptMSK(msk, pk, group, nil); return err }},
			{"Decrypt", cryptoIters(m),
				func() error { _, err := slow.Decrypt(pk, group[0], uk, group, ct); return err },
				func() error { _, err := fast.Decrypt(pk, group[0], uk, group, ct); return err }},
			{"Rekey", 12,
				func() error { _, _, err := slow.Rekey(pk, ct, nil); return err },
				func() error { _, _, err := fast.Rekey(pk, ct, nil); return err }},
		}
		for _, op := range ops {
			// Warm up both arms (fast arm: builds the pk tables once).
			if err := op.slow(); err != nil {
				return nil, fmt.Errorf("%s m=%d warmup: %w", op.name, m, err)
			}
			if err := op.fast(); err != nil {
				return nil, fmt.Errorf("%s m=%d warmup: %w", op.name, m, err)
			}
			r, err := row(op.name, op.iters, op.slow, op.fast)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// timePerOp runs f iters times and returns the fastest single call plus the
// mean heap allocations per call. The minimum is the standard noise-robust
// latency estimator here: an op's cost has a hard arithmetic floor, so
// scheduler preemption and GC pauses can only inflate samples, never deflate
// them. Allocations, by contrast, are deterministic per call (modulo slice
// growth on the first iteration), so the mean over the loop is exact enough.
func timePerOp(iters int, f func() error) (int64, int64, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	best := int64(-1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, 0, err
		}
		if d := time.Since(start).Nanoseconds(); best < 0 || d < best {
			best = d
		}
	}
	runtime.ReadMemStats(&ms)
	allocs := int64(ms.Mallocs-mallocs) / int64(iters)
	return best, allocs, nil
}

// PrintCrypto writes the crypto fast-path table.
func PrintCrypto(w io.Writer, rows []CryptoRow) {
	fmt.Fprintln(w, "Crypto — reference arithmetic vs fixed-base/w-NAF/Straus fast path (same keys, same outputs)")
	fmt.Fprintf(w, "%12s  %5s  %12s  %12s  %8s  %12s  %12s\n",
		"op", "m", "old", "new", "speedup", "old allocs", "new allocs")
	for _, r := range rows {
		fmt.Fprintf(w, "%12s  %5d  %12s  %12s  %7.2fx  %12d  %12d\n",
			r.Op, r.M, Dur(time.Duration(r.SlowNs)), Dur(time.Duration(r.FastNs)), r.Speedup,
			r.SlowAllocs, r.FastAllocs)
	}
	var encMax, decMax CryptoRow
	for _, r := range rows {
		if r.Op == "EncryptMSK" && r.M >= encMax.M {
			encMax = r
		}
		if r.Op == "Decrypt" && r.M >= decMax.M {
			decMax = r
		}
	}
	if encMax.M > 0 && decMax.M > 0 {
		fmt.Fprintf(w, "shape: at m=%d the table-driven path is %.1fx on EncryptMSK and %.1fx on Decrypt; outputs are bit-identical to the reference path\n",
			encMax.M, encMax.Speedup, decMax.Speedup)
	}
}
