package benchmark

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"github.com/ibbesgx/ibbesgx/internal/ibbe"
	"github.com/ibbesgx/ibbesgx/internal/ibbe/ibberef"
)

// CryptoRow is one cell of the crypto fast-path figure: a single IBBE
// operation at receiver-set size m, timed through the reference scheme
// (package ibberef, "slow": double-and-add scalar multiplication,
// per-coefficient HPowers loop, square-and-multiply GT ladder, big.Int
// identity hashing) and through the product scheme (w-NAF windows,
// fixed-base tables, interleaved Straus multi-exponentiation, batch
// normalisation, identity hashes reduced straight into Z_r's limbs, computed
// afresh on every call) that underlies every partition ECALL.
type CryptoRow struct {
	Op string `json:"op"`
	M  int    `json:"m"`
	// Iters is the slow arm's call count; the fast arm makes at least as
	// many per round, over at least cryptoFastWindow in all.
	Iters int `json:"iters"`

	SlowNs int64 `json:"slow_ns_per_op"`
	FastNs int64 `json:"fast_ns_per_op"`

	// Heap allocations per call, averaged over Iters calls. The limb
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

// cryptoFastWindow is the least time the fast arm of every row spends
// calling its op, split over cryptoRounds rounds, each on fresh keys. A
// neighbour busy on a shared core slows every call for hundreds of
// milliseconds, sometimes seconds, at a time, and one key's tables may land
// worse in the caches than another's: the minimum over a dozen calls on one
// key may never see the op's own cost, while the minimum over rounds spread
// across the run, each on its own keys, comes close. A box that stays slow
// for the whole run still reads slow.
const (
	cryptoFastWindow = time.Second
	cryptoRounds     = 8
)

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

// cryptoCell is one row's measurement: its op on both arms, over shared
// inputs.
type cryptoCell struct {
	row        CryptoRow
	prep       func()
	slow, fast func() error
}

// RunCrypto measures Setup, EncryptMSK, Decrypt and Rekey on the reference
// scheme vs the product scheme, on the same key material. Both arms run
// against the same msk/pk/ciphertext inputs, so every measured pair
// computes the identical group elements (the differential tests in
// internal/ibbe assert exactly that, bit for bit); only the arithmetic
// differs. Each timing loop starts with one untimed warm-up call: for the
// fast arm that builds the per-key tables the steady state of a long-lived
// partition key runs on. The slow arm is timed in the first round only; the
// fast arm, which cmd/benchdiff gates, in every round.
func RunCrypto(cfg Config) ([]CryptoRow, error) {
	var rows []CryptoRow
	for round := 0; round < cryptoRounds; round++ {
		cells, err := cryptoCells(cfg)
		if err != nil {
			return nil, err
		}
		for i, c := range cells {
			if round == 0 {
				r := c.row
				if r.SlowNs, r.SlowAllocs, err = timePerOp(r.Iters, 0, c.prep, c.slow); err != nil {
					return nil, fmt.Errorf("%s m=%d slow: %w", r.Op, r.M, err)
				}
				r.FastNs = math.MaxInt64
				rows = append(rows, r)
			}
			r := &rows[i]
			best, allocs, err := timePerOp(r.Iters, cryptoFastWindow/cryptoRounds, c.prep, c.fast)
			if err != nil {
				return nil, fmt.Errorf("%s m=%d fast: %w", r.Op, r.M, err)
			}
			r.FastNs, r.FastAllocs = min(r.FastNs, best), allocs
		}
	}
	for i := range rows {
		rows[i].Speedup = float64(rows[i].SlowNs) / float64(rows[i].FastNs)
	}
	return rows, nil
}

// cryptoCells builds every row's inputs on fresh keys, in row order: Setup,
// EncryptMSK, Decrypt and Rekey at each m of cryptoSizes.
func cryptoCells(cfg Config) ([]cryptoCell, error) {
	cells := make([]cryptoCell, 0, 4*len(cryptoSizes))
	for _, m := range cryptoSizes {
		slow := ibberef.New(cfg.Params)
		fast := ibbe.NewScheme(cfg.Params)

		// Setup: timed on fresh keys each iteration, so the fast arm pays its
		// fixed-base table construction inside the measurement.
		cells = append(cells, cryptoCell{
			row:  CryptoRow{Op: "Setup", M: m, Iters: cryptoIters(m)},
			slow: func() error { _, _, err := slow.Setup(m, nil); return err },
			fast: func() error { _, _, err := fast.Setup(m, nil); return err },
		})

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
		// is quadratic in m and scales its count down like Setup. Every
		// EncryptMSK call, warm-ups included, hashes a receiver set no
		// earlier call saw, as a new group's ids are new; its prep draws
		// that set, untimed. The pool covers the
		// calls whose allocations are counted: each arm's warm-up and first
		// encIters calls.
		const encIters = 12
		var encGroup []string
		nextGroup := freshGroups(m, 2*(1+encIters), "enc")
		cells = append(cells,
			cryptoCell{row: CryptoRow{Op: "EncryptMSK", M: m, Iters: encIters}, prep: func() { encGroup = nextGroup() },
				slow: func() error { _, _, err := slow.EncryptMSK(msk, pk, encGroup, nil); return err },
				fast: func() error { _, _, err := fast.EncryptMSK(msk, pk, encGroup, nil); return err }},
			cryptoCell{row: CryptoRow{Op: "Decrypt", M: m, Iters: cryptoIters(m)},
				slow: func() error { _, err := slow.Decrypt(pk, group[0], uk, group, ct); return err },
				fast: func() error { _, err := fast.Decrypt(pk, group[0], uk, group, ct); return err }},
			cryptoCell{row: CryptoRow{Op: "Rekey", M: m, Iters: 12},
				slow: func() error { _, _, err := slow.Rekey(pk, ct, nil); return err },
				fast: func() error { _, _, err := fast.Rekey(pk, ct, nil); return err }})
	}
	return cells, nil
}

// freshGroups returns a generator of distinct m-id receiver sets. The first
// pooled sets are built up front, so drawing one allocates nothing that
// timePerOp would count; later ones are built on demand.
func freshGroups(m, pooled int, prefix string) func() []string {
	pool, n := names(m*pooled, prefix), 0
	return func() []string {
		n++
		if n <= pooled {
			return pool[(n-1)*m : n*m]
		}
		return names(m, fmt.Sprintf("%s%d", prefix, n))
	}
}

// timePerOp makes one untimed warm-up call of f, then calls f until it has
// made at least iters calls over at least window, and returns the fastest
// single call and the mean heap allocations per call over the first iters.
// The minimum is the standard noise-robust latency estimator here: an op's
// cost has a hard arithmetic floor, so scheduler preemption, GC pauses and
// busy neighbours can only inflate samples, never deflate them.
// Allocations, by contrast, are deterministic per call (modulo slice growth
// on the first iteration), so the mean over iters calls is exact enough.
// prep, when set, runs untimed before every call, allocation-free through
// the first iters. The timed calls start from a collected heap: the
// reference arm leaves megabytes of garbage, and a collection running under
// the next arm's timed calls would charge it their CPU.
func timePerOp(iters int, window time.Duration, prep func(), f func() error) (best, allocs int64, err error) {
	call := func() {
		if prep != nil {
			prep()
		}
		t := time.Now()
		err = f()
		best = min(best, time.Since(t).Nanoseconds())
	}
	if call(); err != nil {
		return 0, 0, fmt.Errorf("warm-up: %w", err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, start := ms.Mallocs, time.Now()
	best = math.MaxInt64
	for i := 0; i < iters && err == nil; i++ {
		call()
	}
	runtime.ReadMemStats(&ms)
	allocs = int64(ms.Mallocs-mallocs) / int64(iters)
	for time.Since(start) < window && err == nil {
		call()
	}
	return best, allocs, err
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
