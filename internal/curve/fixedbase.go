package curve

import (
	"math/big"
	"sync"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// fixedBaseWindow is the radix-2^w digit width of a FixedBase table. Width 4
// keeps the table at ⌈bits(r)/4⌉ × 15 affine points (≈ 150 KiB for the
// 512-bit paper parameters) while reducing a scalar multiplication to one
// mixed addition per digit — no doublings at all.
const fixedBaseWindow = 4

// FixedBase is a precomputed table for repeated scalar multiplication of one
// long-lived base point (the scheme's generators g, h, w). The table stores
// d·2^(w·i)·P for every window position i and digit d, batch-normalized to
// affine with a single field inversion, so Mul is a chain of ≈ bits(r)/w
// mixed additions. Exponents are reduced modulo the subgroup order r, the
// ScalarMultReduced semantics every IBBE call site uses.
//
// With the limb core available the table is built and kept in the
// Montgomery domain only; the big.Int form exists only for fields too wide
// for it.
//
// A FixedBase is immutable after construction and safe for concurrent use.
type FixedBase struct {
	c      *Curve
	base   *Point
	mtable [][]montAffine // mtable[i][d-1] = d · 2^(w·i) · base, limb domain
	table  [][]*Point     // the same, big.Int form, when c.mont() is nil

	// Constant-time signed-odd-window table; see MulConstTime in ctmul.go.
	ctOnce sync.Once
	ctable [][]montAffine
}

// NewFixedBase builds the windowed table for p. Construction costs about one
// generic scalar multiplication per 4 table windows, so it pays for itself
// after a handful of Mul calls; for one-shot exponents use ScalarMult.
func (c *Curve) NewFixedBase(p *Point) *FixedBase {
	fb := &FixedBase{c: c, base: p.Clone()}
	if p.Inf {
		return fb
	}
	const w = fixedBaseWindow
	const per = (1 << w) - 1
	nWin := (c.R.BitLen() + w - 1) / w
	if m := c.mont(); m != nil {
		fb.mtable = c.montWindowRows(m, p, nWin, w, false)
		return fb
	}
	js := make([]*jacobianPoint, 0, nWin*per)
	cur := c.toJacobian(p)
	for i := 0; i < nWin; i++ {
		js = append(js, cur)
		prev := cur
		for d := 2; d <= per; d++ {
			prev = c.jacobianAdd(prev, cur)
			js = append(js, prev)
		}
		for b := 0; b < w; b++ {
			cur = c.jacobianDouble(cur)
		}
	}
	aff := c.batchNormalize(js)
	fb.table = make([][]*Point, nWin)
	for i := 0; i < nWin; i++ {
		fb.table[i] = aff[i*per : (i+1)*per]
	}
	return fb
}

// Point returns (a copy of) the base point the table was built for.
func (fb *FixedBase) Point() *Point { return fb.base.Clone() }

// Mul returns (k mod r)·P using only table lookups and mixed additions.
// When the field fits the limb core the whole digit walk runs in the
// Montgomery domain and big.Int is touched only for the digit probe and the
// final affine conversion.
func (fb *FixedBase) Mul(k *big.Int) *Point {
	c := fb.c
	if m := c.mont(); m != nil {
		e := new(big.Int).Mod(k, c.R)
		if fb.base.Inf || e.Sign() == 0 {
			return c.Infinity()
		}
		acc := fb.montMulJac(m, e)
		return c.montFromJac(m, &acc)
	}
	return c.fromJacobian(fb.mulJacobian(k))
}

// montMulJac is the limb-domain digit walk over the table. The caller
// guarantees 0 < e < r and a non-infinity base.
func (fb *FixedBase) montMulJac(m *ff.Mont, e *big.Int) montJac {
	const w = fixedBaseWindow
	var acc montJac
	acc.setInfinity(m)
	for i := range fb.mtable {
		d := 0
		for b := 0; b < w; b++ {
			d |= int(e.Bit(i*w+b)) << b
		}
		if d == 0 {
			continue
		}
		fb.c.montAddAffine(m, &acc, &fb.mtable[i][d-1])
	}
	return acc
}

// mulJacobian is Mul without the final normalisation, for batch callers.
func (fb *FixedBase) mulJacobian(k *big.Int) *jacobianPoint {
	c := fb.c
	e := new(big.Int).Mod(k, c.R)
	if fb.base.Inf || e.Sign() == 0 {
		return c.jacobianInfinity()
	}
	const w = fixedBaseWindow
	acc := c.jacobianInfinity()
	for i := range fb.table {
		d := 0
		for b := 0; b < w; b++ {
			d |= int(e.Bit(i*w+b)) << b
		}
		if d == 0 {
			continue
		}
		entry := fb.table[i][d-1]
		if entry.Inf {
			continue // only possible for low-order bases
		}
		acc = c.jacobianAddAffine(acc, entry.X, entry.Y)
	}
	return acc
}
