package curve

import (
	"math/big"
	mathbits "math/bits"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// Constant-time scalar multiplication for secret exponents — the MSK-touching
// ECALL paths (extract, partial extract, blinded inversion, DKG dealing) and
// every FixedBase.Mul, which covers the membership ops' headers from sealed
// exponents. The w-NAF
// walks elsewhere in this package leak the exponent through their digit
// pattern: which iterations add, which table index they load, and whether the
// digit is negative are all scalar-dependent. Here every scalar takes the
// exact same operation sequence:
//
//   - the scalar is made odd by adding r when even (valid for r-torsion
//     points, since r·P = ∞), then recoded into a FIXED number of signed odd
//     digits — no digit is ever zero, so every window does exactly one table
//     load and one addition;
//   - table loads scan the whole row, ORing every entry's limbs under a
//     mask that is all-ones only at the wanted index. Which scan runs is
//     fixed at package init: on amd64 CPUs with AVX2 (and OS-enabled YMM
//     state) ctSelectAVX2 in ctmul_amd64.s, one vector pass over the row
//     for both coordinates; on 386, arm64 and amd64 without AVX2 the Go
//     ctScan, which the tests hold the kernel to. Both read every entry
//     and branch only on the row length;
//   - digit signs apply through a masked conditional negation;
//   - the final inversion to affine, a variable-time big.Int.ModInverse, is
//     blinded: it inverts Z·ρ for a fresh random non-zero ρ, a value
//     independent of the scalar, and multiplies ρ back in.
//
// This is best-effort constant time, not a full guarantee: the big.Int
// reduction of the input scalar and the exceptional-case branches inside the
// addition formulas (hit only when an intermediate sum cancels, which for
// random secret scalars is astronomically unlikely) remain variable-time.
// What it removes is the exponent-bit-shaped control flow and memory access
// of the variable-time walks. Every entry point requires an r-torsion point;
// none of them has a branch into a variable-time walk.

// ctWindow is the window width of ScalarMultConstTime, whose odd-multiple
// table is built per call: digits are odd in ±{1, 3, …, 2^w − 1}, needing
// 2^(w−1) table entries. The long-lived FixedBase tables take the wider
// fixedBaseWindow.
const ctWindow = 4

// ctDigits returns the fixed digit count of a width-w recoding of scalars
// below 2^bits.
func ctDigits(bits int, w uint) int {
	return (bits+int(w)-1)/int(w) + 1
}

// ctRecode reduces k modulo r, lifts it to an odd scalar (adding r when
// even — same point for r-torsion bases), and returns its fixed-length
// width-w signed-odd-digit decomposition (2 ≤ w ≤ 7): d_i odd ∈
// ±{1, …, 2^w − 1} with Σ d_i·2^(w·i) equal to the lifted scalar. The digit
// count depends only on r and w, never on k.
func ctRecode(k, r *big.Int, w uint) []int8 {
	x := new(big.Int).Mod(k, r)
	if x.Bit(0) == 0 {
		x.Add(x, r) // r is an odd prime, so x + r is odd; x = 0 lifts to r
	}
	bits := r.BitLen() + 1 // lifted scalar < 2r
	nd := ctDigits(bits, w)
	nl := bits/64 + 1 // headroom limb for the +2^w slack during recoding
	limbs := scalarToLimbs(x, nl)
	digits := make([]int8, nd)
	for i := 0; i < nd-1; i++ {
		d := int64(limbs[0]&((1<<(w+1))-1)) - (1 << w) // odd, in [−2^w+1, 2^w−1]
		digits[i] = int8(d)
		// limbs = (limbs − d) >> w: add the sign-extended two's complement
		// of d, then shift. The result stays odd, so the invariant holds.
		se := uint64(-d)
		ext := uint64((-d) >> 63)
		var carry uint64
		limbs[0], carry = mathbits.Add64(limbs[0], se, 0)
		for j := 1; j < nl; j++ {
			limbs[j], carry = mathbits.Add64(limbs[j], ext, carry)
		}
		for j := 0; j < nl-1; j++ {
			limbs[j] = limbs[j]>>w | limbs[j+1]<<(64-w)
		}
		limbs[nl-1] >>= w
	}
	// Each step maps x to 2·⌊x/2^(w+1)⌋ + 1 ≤ x/2^w + 1, so after the
	// nd−1 ≥ bits/w steps the residue is odd and below 3: it is 1.
	digits[nd-1] = int8(limbs[0])
	return digits
}

// digitIdxMask splits a signed odd digit into its table index (|d|−1)/2 and
// an all-ones mask when the digit is negative, both branchlessly.
func digitIdxMask(d int8) (idx uint64, negMask uint64) {
	v := int64(d)
	sign := uint64(v) >> 63
	negMask = -sign
	abs := (v ^ int64(negMask)) + int64(sign)
	return uint64(abs-1) >> 1, negMask
}

// ctSelect copies table[idx] into dst by scanning every entry, so the
// access pattern is independent of idx. On CPUs with AVX2 it is one vector
// pass over the row (ctSelectAVX2); elsewhere ctSelectGo. ff.HasAVX2 is
// fixed at package init, so every call takes the same kernel.
func ctSelect(dst *montAffine, table []montAffine, idx uint64) {
	if ff.HasAVX2 {
		ctSelectAVX2(dst, table, idx)
		return
	}
	ctSelectGo(dst, table, idx)
}

// ctSelectGo is ctSelect in Go, and the reference the AVX2 kernel is tested
// against: one pass per coordinate ORs each entry's limbs, masked to
// all-ones exactly at idx, into eight local accumulators and writes the
// coordinate once, with no per-entry store.
func ctSelectGo(dst *montAffine, table []montAffine, idx uint64) {
	dst.x = ctScan(table, idx, false)
	dst.y = ctScan(table, idx, true)
}

// The eight accumulators of ctScan are the eight limbs of an ff.Fel; this
// constant overflows, failing the build, if ff.MaxLimbs ever differs.
const _ = uint(ff.MaxLimbs-8) + uint(8-ff.MaxLimbs)

// ctScan returns the x (or, when y is set, the y) coordinate of table[idx]
// after reading that coordinate of every entry.
func ctScan(table []montAffine, idx uint64, y bool) ff.Fel {
	var a0, a1, a2, a3, a4, a5, a6, a7 uint64
	for j := range table {
		f := &table[j].x
		if y {
			f = &table[j].y
		}
		v := uint64(j) ^ idx
		mask := ((v | -v) >> 63) - 1 // all-ones exactly when j == idx
		a0 |= f[0] & mask
		a1 |= f[1] & mask
		a2 |= f[2] & mask
		a3 |= f[3] & mask
		a4 |= f[4] & mask
		a5 |= f[5] & mask
		a6 |= f[6] & mask
		a7 |= f[7] & mask
	}
	return ff.Fel{a0, a1, a2, a3, a4, a5, a6, a7}
}

// ctLoadDigit resolves digit d against a row of odd multiples: a full-row
// masked scan followed by a masked negation for negative digits.
func ctLoadDigit(m *ff.Mont, dst *montAffine, row []montAffine, d int8) {
	idx, negMask := digitIdxMask(d)
	ctSelect(dst, row, idx)
	m.CondNeg(&dst.y, negMask, &dst.y)
	dst.inf = false
}

// ScalarMultConstTime returns (k mod r)·P for an r-torsion point P using the
// uniform fixed-window walk: one table scan and one addition per window, w
// doublings between windows, identical for every scalar. The identity gives
// the identity.
func (c *Curve) ScalarMultConstTime(p *Point, k *big.Int) *Point {
	if p.Inf {
		return c.Infinity()
	}
	m := c.mont()
	modd := c.montOddMultiples(m, p, 1<<(ctWindow-1))
	digits := ctRecode(k, c.R, ctWindow)
	var entry montAffine
	var acc montJac
	ctLoadDigit(m, &entry, modd, digits[len(digits)-1])
	acc.setAffine(m, &entry)
	for i := len(digits) - 2; i >= 0; i-- {
		for b := 0; b < ctWindow; b++ {
			c.montDouble(m, &acc)
		}
		ctLoadDigit(m, &entry, modd, digits[i])
		c.montAddAffine(m, &acc, &entry)
	}
	return c.fromMontAffine(m, &montNormalize(m, []montJac{acc}, c.ctBlind(m))[0])
}

// ctBlind draws the random non-zero factor that blinds a constant-time
// walk's final inversion (montNormalize), in the Montgomery domain.
func (c *Curve) ctBlind(m *ff.Mont) *ff.Fel {
	v, err := c.F.RandNonZero(cryptoRandReader)
	if err != nil {
		// crypto/rand does not fail on supported platforms; a walk must not
		// fall back to an unblinded inversion if it ever does.
		panic("curve: drawing the inversion blind: " + err.Error())
	}
	var rho ff.Fel
	m.FromBig(&rho, v)
	return &rho
}

// fromMontAffine decodes a limb-domain affine point to a big.Int Point.
func (c *Curve) fromMontAffine(m *ff.Mont, a *montAffine) *Point {
	if a.inf {
		return c.Infinity()
	}
	return &Point{X: m.ToBig(&a.x), Y: m.ToBig(&a.y)}
}

// MulConstTimeEach returns (ks[i] mod r)·base_i for the base of every table
// fbs[i], each through the signed-window walk — one masked row scan and one
// mixed addition per digit, no doublings, the same sequence for every
// scalar — and brings the results to affine together: one field inversion
// for all of them instead of one each. Every base must be an r-torsion
// point (all long-lived scheme bases are).
// Large batches (Setup's m + 1 powers of h) split into contiguous chunks
// across at most MaxParallelism workers; the split depends only on the
// batch size. An identity base gives the identity.
func (c *Curve) MulConstTimeEach(fbs []*FixedBase, ks []*big.Int) []*Point {
	out := make([]*Point, len(fbs))
	m := c.mont()
	js := make([]montJac, len(fbs))
	parallelRanges(len(fbs), 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ct := fbs[i].ctable
			if ct == nil {
				js[i].setInfinity(m)
				continue
			}
			digits := ctRecode(ks[i], c.R, fixedBaseWindow)
			var entry montAffine
			acc := &js[i]
			ctLoadDigit(m, &entry, ct[0], digits[0])
			acc.setAffine(m, &entry)
			for d := 1; d < len(digits); d++ {
				ctLoadDigit(m, &entry, ct[d], digits[d])
				c.montAddAffine(m, acc, &entry)
			}
		}
	})
	aff := montNormalize(m, js, c.ctBlind(m))
	for i := range aff {
		out[i] = c.fromMontAffine(m, &aff[i])
	}
	return out
}
