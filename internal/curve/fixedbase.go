package curve

import (
	"math/big"
)

// fixedBaseWindow is the width of a FixedBase table's signed odd digits:
// every exponent recodes into ⌈(bits(r)+1)/w⌉ + 1 digits in ±{1, 3, …,
// 2^w − 1}, one masked row scan and one mixed addition each. A wider window
// means fewer additions but longer row scans. At type-a-512 the table holds
// 28 rows × 32 odd multiples at w = 6, 896 affine points or ≈ 120 KB in the
// limb domain. Sweep with the register-resident row scan (2-vCPU box, one
// thread, min of ten alternating runs for the first two columns, of five
// for the last two; README, Performance):
//
//	w   FixedBase.Mul   3-exponent batch   add/state   remove/state
//	5   56.3 µs         151.8 µs           108.4 µs    186.6 µs
//	6   50.6 µs         133.1 µs            96.0 µs    159.0 µs
//	7   50.3 µs         133.2 µs            95.5 µs    161.5 µs
//
// w = 7 only ties w = 6, at 1.7× the table (209 KB per generator), so the
// window stays at 6.
const fixedBaseWindow = 6

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
