package ff

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"sync/atomic"
)

// This file implements the fixed-width limb Montgomery representation that
// underlies every fast arithmetic path. ff.Field reduces with a full
// big.Int.Mod division after each multiplication — correct, but the division
// dominates the cost of a 512-bit modular multiplication. The Montgomery
// core replaces it: elements are vectors of 64-bit limbs in the Montgomery
// domain (a·R mod q, R = 2^(64k)), multiplication is CIOS (coarsely
// integrated operand scanning) with interleaved reduction — no division
// anywhere — and addition/subtraction are branchless limb chains with a
// masked conditional subtract, so the word-level work is also constant-time.
//
// Conversion in and out of the domain happens only at boundaries (point and
// field-element (de)serialisation, table construction); interior arithmetic
// in the Miller loop, the fixed-base/Straus walks and the GT ladders never
// touches big.Int.

// MaxLimbs bounds the modulus width the limb core supports: 8 limbs cover
// the 512-bit paper parameters exactly. NewField refuses a wider modulus.
const MaxLimbs = 8

// Fel is a fixed-width field element: MaxLimbs little-endian 64-bit limbs,
// of which only Mont.K() are significant. Fel is a value type — copies are
// cheap, stack-friendly and never alias — which is what keeps the limb hot
// paths allocation-free.
type Fel [MaxLimbs]uint64

// Mont is the Montgomery context for one odd modulus: the modulus limbs, the
// word inverse −q⁻¹ mod 2⁶⁴ driving the CIOS reduction, and the R and R²
// residues used for domain conversion. A Mont is immutable after
// construction and safe for concurrent use.
type Mont struct {
	k   int    // significant limb count, ⌈bits(q)/64⌉
	n   Fel    // modulus limbs
	n0  uint64 // −q⁻¹ mod 2⁶⁴
	one Fel    // R mod q (Montgomery form of 1)
	rr  Fel    // R² mod q (to-Montgomery multiplier)
	p   *big.Int
	q52 [laneDigits]uint64 // the modulus in the lane form's 52-bit digits (k == MaxLimbs)
}

// invOps counts modular inversions performed through the ff package — both
// the big.Int Field.Inv and the Montgomery-domain Mont.Inv. It exists for
// the zero-inversion Miller-loop assertion (the projective pairing tests
// read the delta across a Pair call and require that no per-step inversion
// survived) and for the batched-addition paths, which must spend one
// inversion per batched level, not one per point. The counter is process-global and atomic, so it is safe (if
// noisy) under concurrent tests.
var invOps atomic.Int64

// InvOps returns the cumulative count of modular inversions. Tests diff two
// readings around an operation under test.
func InvOps() int64 { return invOps.Load() }

// newMont builds the Montgomery context for an odd modulus p of at most
// MaxLimbs·64 bits; NewFieldUnchecked checks both.
func newMont(p *big.Int) *Mont {
	m := &Mont{
		k: (p.BitLen() + 63) / 64,
		p: new(big.Int).Set(p),
	}
	bigToLimbs(&m.n, m.k, p)
	// n0 = −q⁻¹ mod 2⁶⁴ by Newton iteration: each step doubles the number of
	// correct low bits, five steps reach 64.
	inv := m.n[0]
	for i := 0; i < 5; i++ {
		inv *= 2 - m.n[0]*inv
	}
	m.n0 = -inv
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*m.k))
	bigToLimbs(&m.one, m.k, new(big.Int).Mod(r, p))
	r2 := new(big.Int).Mul(r, r)
	bigToLimbs(&m.rr, m.k, r2.Mod(r2, p))
	if m.k == MaxLimbs {
		var l Lanes
		l.Set(0, &m.n)
		for i := range m.q52 {
			m.q52[i] = l[i][0]
		}
	}
	return m
}

// K returns the significant limb count.
func (m *Mont) K() int { return m.k }

// bigToLimbs writes the canonical little-endian limb form of v (< 2^(64k))
// into dst.
func bigToLimbs(dst *Fel, k int, v *big.Int) {
	var buf [8 * MaxLimbs]byte
	v.FillBytes(buf[:8*k])
	for i := 0; i < k; i++ {
		dst[i] = binary.BigEndian.Uint64(buf[8*(k-1-i):])
	}
	for i := k; i < MaxLimbs; i++ {
		dst[i] = 0
	}
}

// SetBytes sets dst to the big-endian value b and reports whether it is
// canonical: at most K() limbs wide and below the modulus. dst is a plain limb
// value, not yet in the Montgomery domain (ToMont enters it). The bytes go
// straight into 64-bit limbs, so no big.Int is built and nothing depends on
// the width of a big.Word.
func (m *Mont) SetBytes(dst *Fel, b []byte) bool {
	if len(b) > 8*m.k {
		return false
	}
	var buf [8 * MaxLimbs]byte
	copy(buf[8*m.k-len(b):8*m.k], b)
	*dst = Fel{}
	for i := 0; i < m.k; i++ {
		dst[i] = binary.BigEndian.Uint64(buf[8*(m.k-1-i):])
	}
	for i := m.k - 1; i >= 0; i-- {
		if dst[i] != m.n[i] {
			return dst[i] < m.n[i]
		}
	}
	return false // equal to the modulus
}

// limbsToBig assembles a big.Int from the k significant limbs of a.
func limbsToBig(a *Fel, k int) *big.Int {
	var buf [8 * MaxLimbs]byte
	for i := 0; i < k; i++ {
		binary.BigEndian.PutUint64(buf[8*(k-1-i):], a[i])
	}
	return new(big.Int).SetBytes(buf[:8*k])
}

// Mul sets dst = a·b·R⁻¹ mod q (Montgomery product) using CIOS: the
// multiplication and the reduction interleave limb by limb, so the widest
// intermediate is k+2 words and there is no division. dst may alias a or b.
// The 512-bit paper width runs mul8ADX (mont8_amd64.s) on amd64 CPUs with
// BMI2 and ADX and the unrolled Go mul8 (mont8.go) everywhere else; the
// 3-limb width (Z_r at type-a-512, q at type-a-160) runs mul3 (mont3.go);
// every other width runs the generic k-limb loop mulK.
func (m *Mont) Mul(dst, a, b *Fel) {
	switch m.k {
	case MaxLimbs:
		if hasADX {
			mul8ADX(dst, a, b, &m.n, m.n0)
		} else {
			m.mul8(dst, a, b)
		}
	case 3:
		m.mul3(dst, a, b)
	default:
		m.mulK(dst, a, b)
	}
}

// mulK is the CIOS product for any k ≤ MaxLimbs.
func (m *Mont) mulK(dst, a, b *Fel) {
	var t [MaxLimbs + 2]uint64
	k := m.k
	for i := 0; i < k; i++ {
		// t += a · b[i]
		var c uint64
		bi := b[i]
		for j := 0; j < k; j++ {
			hi, lo := bits.Mul64(a[j], bi)
			var cc uint64
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[j] = lo
			c = hi
		}
		var cc uint64
		t[k], cc = bits.Add64(t[k], c, 0)
		t[k+1] = cc
		// t = (t + u·q) / 2⁶⁴ with u chosen so the low word cancels.
		u := t[0] * m.n0
		hi, lo := bits.Mul64(u, m.n[0])
		_, cc = bits.Add64(lo, t[0], 0)
		c = hi + cc
		for j := 1; j < k; j++ {
			hi, lo := bits.Mul64(u, m.n[j])
			var c2 uint64
			lo, c2 = bits.Add64(lo, t[j], 0)
			hi += c2
			lo, c2 = bits.Add64(lo, c, 0)
			hi += c2
			t[j-1] = lo
			c = hi
		}
		t[k-1], cc = bits.Add64(t[k], c, 0)
		t[k] = t[k+1] + cc
	}
	// Conditional subtract: the loop guarantees t < 2q, so one masked
	// subtraction lands in [0, q).
	var borrow uint64
	var r Fel
	for j := 0; j < k; j++ {
		r[j], borrow = bits.Sub64(t[j], m.n[j], borrow)
	}
	keep := -(borrow &^ t[k]) // keep t when it borrowed and had no top word
	for j := 0; j < k; j++ {
		dst[j] = (t[j] & keep) | (r[j] &^ keep)
	}
	for j := k; j < MaxLimbs; j++ {
		dst[j] = 0
	}
}

// Sqr sets dst = a²·R⁻¹ mod q. At 8 and 3 limbs a dedicated squaring forms
// each cross product aᵢ·aⱼ once (36 word products and the reduction's 64,
// against CIOS's 128; sqr3: 6 and 9 against 18): at 8 limbs sqr8ADX
// (mont8_amd64.s) on amd64 CPUs with BMI2 and ADX, sqr8 (mont8.go)
// everywhere else. Other widths reuse the CIOS multiply.
func (m *Mont) Sqr(dst, a *Fel) {
	switch m.k {
	case MaxLimbs:
		if hasADX {
			sqr8ADX(dst, a, &m.n, m.n0)
		} else {
			m.sqr8(dst, a)
		}
	case 3:
		m.sqr3(dst, a)
	default:
		m.mulK(dst, a, a)
	}
}

// Add sets dst = a + b mod q with a branchless masked reduction.
func (m *Mont) Add(dst, a, b *Fel) {
	switch m.k {
	case MaxLimbs:
		m.add8(dst, a, b)
	case 3:
		m.add3(dst, a, b)
	default:
		m.addK(dst, a, b)
	}
}

// addK is Add for any k ≤ MaxLimbs.
func (m *Mont) addK(dst, a, b *Fel) {
	k := m.k
	var carry uint64
	var s Fel
	for j := 0; j < k; j++ {
		s[j], carry = bits.Add64(a[j], b[j], carry)
	}
	var borrow uint64
	var r Fel
	for j := 0; j < k; j++ {
		r[j], borrow = bits.Sub64(s[j], m.n[j], borrow)
	}
	keep := -(borrow &^ carry) // keep the raw sum when subtracting borrowed
	for j := 0; j < k; j++ {
		dst[j] = (s[j] & keep) | (r[j] &^ keep)
	}
}

// Dbl sets dst = 2a mod q.
func (m *Mont) Dbl(dst, a *Fel) { m.Add(dst, a, a) }

// Sub sets dst = a − b mod q with a branchless masked add-back.
func (m *Mont) Sub(dst, a, b *Fel) {
	switch m.k {
	case MaxLimbs:
		m.sub8(dst, a, b)
	case 3:
		m.sub3(dst, a, b)
	default:
		m.subK(dst, a, b)
	}
}

// subK is Sub for any k ≤ MaxLimbs.
func (m *Mont) subK(dst, a, b *Fel) {
	k := m.k
	var borrow uint64
	var d Fel
	for j := 0; j < k; j++ {
		d[j], borrow = bits.Sub64(a[j], b[j], borrow)
	}
	mask := -borrow
	var carry uint64
	for j := 0; j < k; j++ {
		d[j], carry = bits.Add64(d[j], m.n[j]&mask, carry)
	}
	*dst = d
}

// Neg sets dst = −a mod q.
func (m *Mont) Neg(dst, a *Fel) {
	var zero Fel
	m.Sub(dst, &zero, a)
}

// SetOne sets dst to the Montgomery form of 1.
func (m *Mont) SetOne(dst *Fel) { *dst = m.one }

// SetZero sets dst to zero (zero is its own Montgomery form).
func (m *Mont) SetZero(dst *Fel) { *dst = Fel{} }

// IsZero reports whether a == 0, in constant time over the limb vector.
func (m *Mont) IsZero(a *Fel) bool {
	var acc uint64
	for j := 0; j < m.k; j++ {
		acc |= a[j]
	}
	return acc == 0
}

// Equal reports whether a == b (both in the same domain), in constant time.
func (m *Mont) Equal(a, b *Fel) bool {
	var acc uint64
	for j := 0; j < m.k; j++ {
		acc |= a[j] ^ b[j]
	}
	return acc == 0
}

// Select sets dst = a when mask is all-ones and dst = b when mask is zero,
// without branching — the primitive behind the constant-time table walks.
func (m *Mont) Select(dst *Fel, mask uint64, a, b *Fel) {
	for j := 0; j < m.k; j++ {
		dst[j] = (a[j] & mask) | (b[j] &^ mask)
	}
}

// CondNeg sets dst = −a when mask is all-ones, dst = a otherwise, branchless.
func (m *Mont) CondNeg(dst *Fel, mask uint64, a *Fel) {
	var neg Fel
	m.Neg(&neg, a)
	m.Select(dst, mask, &neg, a)
}

// FromBig encodes v (any integer) into the Montgomery domain.
func (m *Mont) FromBig(dst *Fel, v *big.Int) {
	red := v
	if v.Sign() < 0 || v.Cmp(m.p) >= 0 {
		red = new(big.Int).Mod(v, m.p)
	}
	var nat Fel
	bigToLimbs(&nat, m.k, red)
	m.ToMont(dst, &nat)
}

// ToMont encodes a canonical limb value a < q into the Montgomery domain:
// one product by R². dst may alias a.
func (m *Mont) ToMont(dst, a *Fel) { m.Mul(dst, a, &m.rr) }

// ToBig decodes a Montgomery-domain element back to a canonical big.Int.
func (m *Mont) ToBig(a *Fel) *big.Int {
	var unit Fel
	unit[0] = 1
	var out Fel
	m.Mul(&out, a, &unit)
	return limbsToBig(&out, m.k)
}

// Inv sets dst = a⁻¹ (both in the Montgomery domain) and reports whether a
// was invertible. The inversion itself runs through big.Int.ModInverse —
// inversions only happen at operation boundaries (final normalisation, the
// pairing's easy exponentiation) or one per batched level of simultaneous
// affine additions (the multi-exp and its table build), never per point
// addition, which the InvOps counter lets tests assert.
func (m *Mont) Inv(dst, a *Fel) bool {
	invOps.Add(1)
	v := m.ToBig(a)
	inv := new(big.Int).ModInverse(v, m.p)
	if inv == nil {
		return false
	}
	m.FromBig(dst, inv)
	return true
}

// Exp sets dst = a^e for a non-negative exponent, staying in the Montgomery
// domain throughout (square-and-multiply over CIOS products).
func (m *Mont) Exp(dst, a *Fel, e *big.Int) {
	acc := m.one
	base := *a
	for i := e.BitLen() - 1; i >= 0; i-- {
		m.Sqr(&acc, &acc)
		if e.Bit(i) == 1 {
			m.Mul(&acc, &acc, &base)
		}
	}
	*dst = acc
}

// Mont returns the limb Montgomery context for the field, built with it; it
// is never nil.
func (f *Field) Mont() *Mont { return f.mont }
