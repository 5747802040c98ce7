package curve

import (
	"math/big"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// scalarWindow is the w-NAF width used by ScalarMult and the one-shot
// Curve.MultiExp: digits are odd in ±{1, 3, …, 2^(w−1)−1}, so each base needs
// 2^(w−2) precomputed odd multiples and the average density of non-zero
// digits is 1/(w+1). Narrow, because those tables are built per call.
const scalarWindow = 4

// multiExpWindow is the w-NAF width of a long-lived MultiExpTable (the
// public key's h^{γ^i} powers). Its bases are fixed for the key's lifetime,
// so the table can be wide: 64 odd multiples per base (8.5 KiB in the limb
// domain) cut a 160-bit scalar's additions from ≈ 32 at width 4 to ≈ 18.
// Chosen by measurement at type-a-512, m = 256 (see README, Performance).
const multiExpWindow = 8

// wnafDigits returns the width-w non-adjacent form of k > 0 (2 ≤ w ≤ 8),
// least significant digit first, ending at the top non-zero digit. Every
// non-zero digit is odd and is followed by at least w−1 zeros, which is what
// lets the evaluation loop amortise one table addition over w doublings.
//
// The recoding reads w-bit windows out of fixed 64-bit limbs
// (scalarToLimbs) and carries the borrow of a negative digit forward as one
// bit, instead of subtracting and shifting a big.Int per digit: a zero digit
// is a single bit probe.
func wnafDigits(k *big.Int, w uint) []int8 {
	bits := uint(k.BitLen())
	limbs := scalarToLimbs(k, int(bits/64)+1)
	digits := make([]int8, bits+1)
	top := -1
	carry := uint64(0)
	for pos := uint(0); pos <= bits; {
		if limbBits(limbs, pos, 1) == carry {
			pos++ // (k >> pos) + carry is even: a zero digit
			continue
		}
		word := limbBits(limbs, pos, w) + carry
		carry = word >> (w - 1) & 1 // ≥ 2^(w−1): take the negative representative
		digits[pos] = int8(int64(word) - int64(carry<<w))
		top = int(pos)
		pos += w
	}
	return digits[:top+1]
}

// limbBits returns the n ≤ 64 bits of the little-endian limb vector l
// starting at bit pos; bits past the end read as zero.
func limbBits(l []uint64, pos, n uint) uint64 {
	i, s := pos/64, pos%64
	if int(i) >= len(l) {
		return 0
	}
	v := l[i] >> s
	if s+n > 64 && int(i)+1 < len(l) {
		v |= l[i+1] << (64 - s)
	}
	return v & (1<<n - 1)
}

// scalarMultMont is the w-NAF ladder behind ScalarMult, in the Montgomery
// domain throughout: the per-call odd-multiple table (montOddMultiples), and
// every doubling and addition a limb product. The scalar must be positive;
// the point may be any affine curve point other than ∞.
func (c *Curve) scalarMultMont(m *ff.Mont, p *Point, k *big.Int) montJac {
	digits := wnafDigits(k, scalarWindow)
	odd := c.montOddMultiples(m, p, 1<<(scalarWindow-2))
	var acc montJac
	acc.setInfinity(m)
	for i := len(digits) - 1; i >= 0; i-- {
		c.montDouble(m, &acc)
		d := digits[i]
		if d == 0 {
			continue
		}
		if d > 0 {
			c.montAddAffine(m, &acc, &odd[(d-1)/2])
		} else {
			c.montAddNegAffine(m, &acc, &odd[(-d-1)/2])
		}
	}
	return acc
}
