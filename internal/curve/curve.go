// Package curve implements the supersingular elliptic curve E: y² = x³ + x
// over F_q with q ≡ 3 (mod 4), the curve family behind PBC's "Type A"
// pairing parameters used by the original IBBE-SGX artifact.
//
// For this curve #E(F_q) = q + 1, and the pairing group G1 is the subgroup
// of prime order r where q + 1 = h·r. Points are immutable; operations
// return fresh values.
package curve

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// Errors returned by curve operations.
var (
	// ErrNotOnCurve reports a point that fails the curve equation.
	ErrNotOnCurve = errors.New("curve: point is not on the curve")
	// ErrBadEncoding reports a malformed point encoding.
	ErrBadEncoding = errors.New("curve: bad point encoding")
	// ErrHashToPoint reports failure to map a digest onto the curve after
	// exhausting the retry counter (cryptographically negligible).
	ErrHashToPoint = errors.New("curve: hash-to-point failed")
)

// Curve is the group of F_q-rational points of y² = x³ + x together with
// the order-r subgroup structure needed by the pairing.
type Curve struct {
	// F is the base field F_q.
	F *ff.Field
	// R is the prime order of the pairing subgroup G1.
	R *big.Int
	// Cofactor is h = (q+1)/r; multiplying any curve point by h lands in G1.
	Cofactor *big.Int

	// zr is the scalar field Z_r, built once at construction; RandScalar
	// used to rebuild it (and re-run a Miller–Rabin primality check) on
	// every call, which dominated the cost of drawing the per-message k.
	zr *ff.Field
}

// Point is a point in affine coordinates, or the point at infinity.
type Point struct {
	X, Y *big.Int
	Inf  bool
}

// NewCurve assembles the curve group for the given field, subgroup order and
// cofactor. It validates that r·h = q+1 and that r is a probable prime.
func NewCurve(f *ff.Field, r, cofactor *big.Int) (*Curve, error) {
	if f == nil || r == nil || cofactor == nil {
		return nil, errors.New("curve: nil parameter")
	}
	order := new(big.Int).Mul(r, cofactor)
	qPlus1 := new(big.Int).Add(f.P(), big.NewInt(1))
	if order.Cmp(qPlus1) != 0 {
		return nil, errors.New("curve: r·h must equal q+1 for the supersingular curve")
	}
	if !r.ProbablyPrime(20) {
		return nil, errors.New("curve: subgroup order r is not prime")
	}
	zr, err := ff.NewFieldUnchecked(r)
	if err != nil {
		return nil, err
	}
	return &Curve{F: f, R: new(big.Int).Set(r), Cofactor: new(big.Int).Set(cofactor), zr: zr}, nil
}

// Infinity returns the identity element.
func (c *Curve) Infinity() *Point { return &Point{Inf: true} }

// NewPoint validates (x, y) against the curve equation and returns the point.
func (c *Curve) NewPoint(x, y *big.Int) (*Point, error) {
	p := &Point{X: c.F.Reduce(x), Y: c.F.Reduce(y)}
	if !c.IsOnCurve(p) {
		return nil, ErrNotOnCurve
	}
	return p, nil
}

// IsOnCurve reports whether p satisfies y² = x³ + x (infinity counts).
func (c *Curve) IsOnCurve(p *Point) bool {
	if p.Inf {
		return true
	}
	lhs := c.F.Sqr(p.Y)
	rhs := c.F.Add(c.F.Mul(c.F.Sqr(p.X), p.X), p.X)
	return lhs.Cmp(rhs) == 0
}

// Equal reports whether two points are the same group element.
func (c *Curve) Equal(p, q *Point) bool {
	if p.Inf || q.Inf {
		return p.Inf == q.Inf
	}
	return p.X.Cmp(q.X) == 0 && p.Y.Cmp(q.Y) == 0
}

// Neg returns −p.
func (c *Curve) Neg(p *Point) *Point {
	if p.Inf {
		return c.Infinity()
	}
	return &Point{X: new(big.Int).Set(p.X), Y: c.F.Neg(p.Y)}
}

// Add returns p + q using affine chord-and-tangent formulas.
func (c *Curve) Add(p, q *Point) *Point {
	if p.Inf {
		return q.Clone()
	}
	if q.Inf {
		return p.Clone()
	}
	f := c.F
	if p.X.Cmp(q.X) == 0 {
		if f.Add(p.Y, q.Y).Sign() == 0 {
			return c.Infinity()
		}
		return c.Double(p)
	}
	// λ = (y₂ − y₁) / (x₂ − x₁)
	den, err := f.Inv(f.Sub(q.X, p.X))
	if err != nil {
		// Unreachable: x₂ ≠ x₁ implies the difference is invertible.
		return c.Infinity()
	}
	lambda := f.Mul(f.Sub(q.Y, p.Y), den)
	x3 := f.Sub(f.Sub(f.Sqr(lambda), p.X), q.X)
	y3 := f.Sub(f.Mul(lambda, f.Sub(p.X, x3)), p.Y)
	return &Point{X: x3, Y: y3}
}

// Double returns 2p.
func (c *Curve) Double(p *Point) *Point {
	if p.Inf {
		return c.Infinity()
	}
	if p.Y.Sign() == 0 {
		return c.Infinity()
	}
	f := c.F
	// λ = (3x² + 1) / 2y   (a = 1 for y² = x³ + x)
	num := f.Add(f.Mul(big.NewInt(3), f.Sqr(p.X)), big.NewInt(1))
	den, err := f.Inv(f.Add(p.Y, p.Y))
	if err != nil {
		return c.Infinity()
	}
	lambda := f.Mul(num, den)
	x3 := f.Sub(f.Sqr(lambda), f.Add(p.X, p.X))
	y3 := f.Sub(f.Mul(lambda, f.Sub(p.X, x3)), p.Y)
	return &Point{X: x3, Y: y3}
}

// ScalarMult returns k·p. The scalar may be any integer; it is used as-is
// (callers working in G1 should reduce modulo r first, which ScalarBase
// operations in higher layers do). Internally the chain stays in Jacobian
// coordinates in the Montgomery domain end to end and walks the width-4 NAF
// of k over a batch-normalized odd-multiple table, so a b-bit scalar costs b
// doublings plus ≈ b/5 mixed additions and exactly two field inversions (one
// for the table, one for the final normalisation). The walk is variable
// time: secret exponents take ScalarMultConstTime or a FixedBase.
func (c *Curve) ScalarMult(p *Point, k *big.Int) *Point {
	if p.Inf || k.Sign() == 0 {
		return c.Infinity()
	}
	if k.Sign() < 0 {
		return c.ScalarMult(c.Neg(p), new(big.Int).Neg(k))
	}
	m := c.mont()
	acc := c.scalarMultMont(m, p, k)
	return c.montFromJac(m, &acc)
}

// ScalarMultBinary is the plain double-and-add ladder ScalarMult used before
// the windowed fast path. It is kept as the reference implementation the
// differential tests pin ScalarMult against, and as the "old path" arm of
// the crypto benchmark.
func (c *Curve) ScalarMultBinary(p *Point, k *big.Int) *Point {
	if p.Inf || k.Sign() == 0 {
		return c.Infinity()
	}
	if k.Sign() < 0 {
		return c.ScalarMultBinary(c.Neg(p), new(big.Int).Neg(k))
	}
	acc := c.jacobianInfinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = c.jacobianDouble(acc)
		if k.Bit(i) == 1 {
			acc = c.jacobianAddAffine(acc, p.X, p.Y)
		}
	}
	return c.fromJacobian(acc)
}

// ScalarMultReduced reduces k modulo the subgroup order r before multiplying;
// this is the operation used for G1 exponent arithmetic everywhere above.
func (c *Curve) ScalarMultReduced(p *Point, k *big.Int) *Point {
	return c.ScalarMult(p, new(big.Int).Mod(k, c.R))
}

// ClearCofactor maps an arbitrary curve point into the order-r subgroup G1.
func (c *Curve) ClearCofactor(p *Point) *Point {
	return c.ScalarMult(p, c.Cofactor)
}

// InSubgroup reports whether p lies in G1 (i.e. r·p = ∞).
func (c *Curve) InSubgroup(p *Point) bool {
	return c.ScalarMult(p, c.R).Inf
}

// RandScalar draws a uniform scalar in [1, r−1] (the exponent group Z_r*).
func (c *Curve) RandScalar(rd io.Reader) (*big.Int, error) {
	return c.zr.RandNonZero(rd)
}

// RandPoint returns a uniformly random element of G1 by hashing random bytes
// to the curve and clearing the cofactor.
func (c *Curve) RandPoint(rd io.Reader) (*Point, error) {
	var seed [32]byte
	if rd == nil {
		rd = cryptoRandReader
	}
	if _, err := io.ReadFull(rd, seed[:]); err != nil {
		return nil, fmt.Errorf("curve: drawing random point seed: %w", err)
	}
	return c.HashToPoint(seed[:])
}

// HashToPoint maps arbitrary bytes to a point of G1 using deterministic
// try-and-increment: x = H(counter ∥ msg) mod q until x³+x is a square, then
// the cofactor is cleared. The expected number of iterations is 2.
func (c *Curve) HashToPoint(msg []byte) (*Point, error) {
	f := c.F
	for ctr := uint32(0); ctr < 512; ctr++ {
		x := c.expandToField(msg, ctr)
		t := f.Add(f.Mul(f.Sqr(x), x), x) // x³ + x
		y, err := f.Sqrt(t)
		if err != nil {
			continue
		}
		// Pick the lexicographically smaller root deterministically.
		if y.Bit(0) == 1 {
			y = f.Neg(y)
		}
		p := &Point{X: x, Y: y}
		g := c.ClearCofactor(p)
		if g.Inf {
			continue
		}
		return g, nil
	}
	return nil, ErrHashToPoint
}

// expandToField derives a field element from msg and a counter by
// concatenating SHA-256 blocks until the field width is covered.
func (c *Curve) expandToField(msg []byte, ctr uint32) *big.Int {
	need := c.F.ByteLen() + 16 // oversample to keep mod-q bias negligible
	out := make([]byte, 0, need)
	var block uint32
	for len(out) < need {
		h := sha256.New()
		var pre [8]byte
		binary.BigEndian.PutUint32(pre[0:4], ctr)
		binary.BigEndian.PutUint32(pre[4:8], block)
		h.Write(pre[:])
		h.Write(msg)
		out = h.Sum(out)
		block++
	}
	return c.F.Reduce(new(big.Int).SetBytes(out[:need]))
}

// Marshal encodes p as X ∥ Y in fixed width (2·ByteLen bytes, e.g. 128 bytes
// for the paper's 512-bit q — exactly the element size behind the paper's
// 256-byte two-point IBBE ciphertext). Infinity encodes as all zeros, which
// cannot collide with a valid point because (0,0) is not on the curve's
// prime-order subgroup.
func (c *Curve) Marshal(p *Point) []byte {
	w := c.F.ByteLen()
	out := make([]byte, 2*w)
	if p.Inf {
		return out
	}
	c.F.Reduce(p.X).FillBytes(out[:w])
	c.F.Reduce(p.Y).FillBytes(out[w:])
	return out
}

// Unmarshal parses an encoding produced by Marshal, validating curve
// membership. Both checks run on the limbs: each coordinate must be below q,
// and y² = x³ + x must hold in the Montgomery domain, so decoding divides no
// big.Int. It accepts exactly what NewPoint accepts of the decoded
// coordinates.
func (c *Curve) Unmarshal(b []byte) (*Point, error) {
	w := c.F.ByteLen()
	if len(b) != 2*w {
		return nil, fmt.Errorf("%w: got %d bytes, want %d", ErrBadEncoding, len(b), 2*w)
	}
	allZero := true
	for _, v := range b {
		if v != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return c.Infinity(), nil
	}
	m := c.mont()
	var x, y ff.Fel
	if !m.SetBytes(&x, b[:w]) || !m.SetBytes(&y, b[w:]) {
		return nil, fmt.Errorf("curve: %w: value not canonical", ff.ErrBadEncoding)
	}
	var lhs, rhs ff.Fel
	m.ToMont(&x, &x)
	m.ToMont(&y, &y)
	m.Sqr(&lhs, &y)
	m.Sqr(&rhs, &x)
	m.Mul(&rhs, &rhs, &x)
	m.Add(&rhs, &rhs, &x)
	if !m.Equal(&lhs, &rhs) {
		return nil, ErrNotOnCurve
	}
	return &Point{X: new(big.Int).SetBytes(b[:w]), Y: new(big.Int).SetBytes(b[w:])}, nil
}

// PointLen returns the byte length of a marshalled point.
func (c *Curve) PointLen() int { return 2 * c.F.ByteLen() }

// Clone returns a deep copy of p.
func (p *Point) Clone() *Point {
	if p.Inf {
		return &Point{Inf: true}
	}
	return &Point{X: new(big.Int).Set(p.X), Y: new(big.Int).Set(p.Y)}
}

// String renders the point for debugging.
func (p *Point) String() string {
	if p.Inf {
		return "∞"
	}
	return fmt.Sprintf("(%s, %s)", p.X, p.Y)
}
