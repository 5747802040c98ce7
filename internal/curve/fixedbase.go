package curve

import (
	"math/big"
)

// fixedBaseWindow is the width of a FixedBase table's signed odd digits:
// every exponent recodes into ⌈(bits(r)+1)/w⌉ + 1 digits in ±{1, 3, …,
// 2^w − 1}, one masked row scan and one mixed addition each. A wider window
// means fewer additions but longer row scans. At type-a-512 the table holds
// 24 rows × 64 odd multiples at w = 7, 1 536 affine points or ≈ 209 KB in
// the limb domain. Sweep with the AVX2 row scan (2-vCPU box, one thread,
// median (min) of twenty alternating rounds; README, Performance):
//
//	w   FixedBase.Mul   3-exponent batch   add/state      remove/state
//	5   58.6 (42.4) µs  158.0 (108.3) µs   108.9 (84.3) µs  181.9 (124.6) µs
//	6   54.0 (34.7) µs  134.2 (93.1) µs    100.1 (69.3) µs  165.5 (114.7) µs
//	7   51.4 (39.5) µs  128.8 (93.3) µs     95.2 (65.8) µs  157.5 (119.3) µs
//
// With the Go scan a 64-entry row cost ≈ 2.6× a 32-entry one and w = 7
// only tied w = 6. The AVX2 scan makes the longer row cheap enough that
// w = 7's four fewer additions win, at 1.7× the table: end to end, both
// widths on the AVX2 scan, w = 7 cut local_compute's add_p50_ms by 4.5 %
// and remove_p50_ms by 3.5 % (six alternating pairs, all six).
const fixedBaseWindow = 7

// FixedBase is a precomputed table for repeated scalar multiplication of one
// long-lived r-torsion base point (the scheme's generators g, h, w). Row i
// of the table holds the odd multiples {1, 3, …, 2^w − 1}·2^(w·i)·P,
// batch-normalized to affine with a single field inversion, so Mul is a
// chain of ≈ bits(r)/w mixed additions and no doublings, on the
// constant-time walk of ctmul.go. Exponents are reduced modulo the subgroup
// order r, the ScalarMultReduced semantics every IBBE call site uses. The
// table is built and kept in the Montgomery domain.
//
// A FixedBase is immutable after construction and safe for concurrent use.
type FixedBase struct {
	c      *Curve
	base   *Point
	ctable [][]montAffine // signed-odd-window rows, limb domain; nil for ∞
}

// NewFixedBase builds the windowed table for p. Construction costs a few
// generic scalar multiplications, so it pays for itself after a handful of
// Mul calls; for one-shot exponents use ScalarMult.
func (c *Curve) NewFixedBase(p *Point) *FixedBase {
	fb := &FixedBase{c: c, base: p.Clone()}
	if !p.Inf {
		fb.ctable = c.montOddWindowRows(c.mont(), p, ctDigits(c.R.BitLen()+1, fixedBaseWindow), fixedBaseWindow)
	}
	return fb
}

// Point returns (a copy of) the base point the table was built for.
func (fb *FixedBase) Point() *Point { return fb.base.Clone() }

// Mul returns (k mod r)·P: MulConstTimeEach for one table, the same digit
// count, row scans and additions for every k.
func (fb *FixedBase) Mul(k *big.Int) *Point {
	return fb.c.MulConstTimeEach([]*FixedBase{fb}, []*big.Int{k})[0]
}
