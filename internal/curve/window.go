package curve

import "math/big"

// scalarWindow is the w-NAF width used by ScalarMult and the Straus
// multi-exponentiation: digits are odd in ±{1, 3, …, 2^(w−1)−1}, so each
// base needs 2^(w−2) precomputed odd multiples and the average density of
// non-zero digits is 1/(w+1).
const scalarWindow = 4

// wnafDigits returns the width-w non-adjacent form of k > 0, least
// significant digit first. Every non-zero digit is odd and is followed by at
// least w−1 zeros, which is what lets the evaluation loop amortise one
// table addition over w doublings.
func wnafDigits(k *big.Int, w uint) []int8 {
	d := new(big.Int).Set(k)
	digits := make([]int8, 0, d.BitLen()+1)
	mod := int64(1) << w
	half := mod >> 1
	t := new(big.Int)
	for d.Sign() > 0 {
		if d.Bit(0) == 0 {
			digits = append(digits, 0)
			d.Rsh(d, 1)
			continue
		}
		r := int64(0)
		for b := uint(0); b < w; b++ {
			r |= int64(d.Bit(int(b))) << b
		}
		if r >= half {
			r -= mod // choose the negative representative; forces w−1 zeros next
		}
		digits = append(digits, int8(r))
		d.Sub(d, t.SetInt64(r))
		d.Rsh(d, 1)
	}
	return digits
}

// oddMultiples returns [1P, 3P, 5P, …, (2n−1)P] in affine coordinates,
// computed in Jacobian form and batch-normalized with a single inversion.
func (c *Curve) oddMultiples(p *Point, n int) []*Point {
	js := make([]*jacobianPoint, n)
	js[0] = c.toJacobian(p)
	if n > 1 {
		twoP := c.jacobianDouble(js[0])
		for i := 1; i < n; i++ {
			js[i] = c.jacobianAdd(js[i-1], twoP)
		}
	}
	return c.batchNormalize(js)
}

// scalarMultJacobian is the w-NAF ladder behind ScalarMult. The scalar must
// be non-negative; the point may be any curve point. When the limb core is
// available the whole call runs in the Montgomery domain — the odd-multiple
// table too (montOddMultiples) — and every doubling and addition is a limb
// product.
func (c *Curve) scalarMultJacobian(p *Point, k *big.Int) *jacobianPoint {
	if p.Inf || k.Sign() == 0 {
		return c.jacobianInfinity()
	}
	digits := wnafDigits(k, scalarWindow)
	if m := c.mont(); m != nil {
		modd := c.montOddMultiples(m, p, 1<<(scalarWindow-2))
		var acc montJac
		acc.setInfinity(m)
		for i := len(digits) - 1; i >= 0; i-- {
			c.montDouble(m, &acc)
			d := digits[i]
			if d == 0 {
				continue
			}
			if d > 0 {
				c.montAddAffine(m, &acc, &modd[(d-1)/2])
			} else {
				c.montAddNegAffine(m, &acc, &modd[(-d-1)/2])
			}
		}
		return c.montToJacobian(m, &acc)
	}
	odd := c.oddMultiples(p, 1<<(scalarWindow-2))
	acc := c.jacobianInfinity()
	f := c.F
	for i := len(digits) - 1; i >= 0; i-- {
		acc = c.jacobianDouble(acc)
		d := digits[i]
		if d == 0 {
			continue
		}
		var e *Point
		if d > 0 {
			e = odd[(d-1)/2]
			if e.Inf {
				continue // (2j+1)·P = ∞ for low-order P: adding ∞ is a no-op
			}
			acc = c.jacobianAddAffine(acc, e.X, e.Y)
		} else {
			e = odd[(-d-1)/2]
			if e.Inf {
				continue
			}
			acc = c.jacobianAddAffine(acc, e.X, f.Neg(e.Y))
		}
	}
	return acc
}
