// Package ff implements arithmetic in the prime field F_q and its quadratic
// extension F_q² = F_q[i]/(i²+1) used by the Type-A pairing substrate.
//
// The package mirrors what the PBC/GMP stack provided to the original
// IBBE-SGX artifact: arbitrary-precision modular arithmetic specialised for
// a prime q ≡ 3 (mod 4), for which −1 is a quadratic non-residue and square
// roots are computed by a single exponentiation.
//
// The big.Int operations on Field allocate and return fresh big.Ints;
// inputs are never mutated. They are the reference arithmetic: every Field
// also carries the fixed-width limb Montgomery context (Mont) that all
// product arithmetic runs on, so a modulus wider than MaxLimbs·64 bits is
// refused at construction. A Field value is immutable after construction
// and safe for concurrent use.
//
// At the 512-bit paper width the limb core has three kernel sets, each
// picked once from CPUID at package init: Go everywhere, MULX/ADX products
// on amd64 (mul8ADX, sqr8ADX), and an 8-lane form (Lanes; LaneMul, LaneAdd,
// LaneSub) that multiplies eight independent elements at once with AVX-512
// IFMA where HasIFMA is set, for callers that have eight products to do
// side by side. Every set returns the same limbs.
package ff

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Common errors returned by field operations.
var (
	// ErrNotSquare reports that Sqrt was called on a quadratic non-residue.
	ErrNotSquare = errors.New("ff: element is not a square")
	// ErrNotInvertible reports that Inv was called on zero.
	ErrNotInvertible = errors.New("ff: element is not invertible")
	// ErrBadEncoding reports a malformed fixed-width field-element encoding.
	ErrBadEncoding = errors.New("ff: bad field element encoding")
	// ErrModulusTooWide reports a modulus wider than the limb core's
	// MaxLimbs·64 bits.
	ErrModulusTooWide = errors.New("ff: modulus wider than the limb core")
)

// Field is the prime field F_q for a prime q ≡ 3 (mod 4).
type Field struct {
	p *big.Int // the modulus q
	// sqrtExp is (q+1)/4; x^sqrtExp is a square root of x when x is a QR.
	sqrtExp *big.Int
	// legExp is (q−1)/2, the Legendre-symbol exponent.
	legExp *big.Int
	// byteLen is the fixed serialisation width of one element.
	byteLen int

	// mont is the limb Montgomery context, built with the field; see Mont().
	mont *Mont
}

// NewField constructs the field F_p. It returns an error unless p is an odd
// probable prime congruent to 3 modulo 4 (the only shape the Type-A pairing
// uses; it guarantees that −1 is a non-residue so F_p² = F_p[i]).
func NewField(p *big.Int) (*Field, error) {
	if p != nil && (p.Bit(0) == 0 || p.Bit(1) == 0) {
		return nil, fmt.Errorf("ff: modulus must be ≡ 3 (mod 4), got %s mod 4", new(big.Int).Mod(p, big.NewInt(4)))
	}
	return NewFieldUnchecked(p)
}

// NewFieldUnchecked constructs F_p for any odd probable prime p of at most
// MaxLimbs·64 bits, without the p ≡ 3 (mod 4) requirement. Sqrt must not be
// used on such a field; it is intended for scalar fields like Z_r where only
// ring arithmetic is needed.
func NewFieldUnchecked(p *big.Int) (*Field, error) {
	if p == nil || p.Sign() <= 0 {
		return nil, errors.New("ff: modulus must be a positive prime")
	}
	if p.BitLen() > 64*MaxLimbs {
		return nil, fmt.Errorf("%w: %d bits, limit %d", ErrModulusTooWide, p.BitLen(), 64*MaxLimbs)
	}
	if p.Bit(0) == 0 {
		return nil, errors.New("ff: modulus must be odd")
	}
	if !p.ProbablyPrime(20) {
		return nil, errors.New("ff: modulus is not prime")
	}
	one := big.NewInt(1)
	sqrtExp := new(big.Int).Add(p, one)
	sqrtExp.Rsh(sqrtExp, 2)
	legExp := new(big.Int).Sub(p, one)
	legExp.Rsh(legExp, 1)
	return &Field{
		p:       new(big.Int).Set(p),
		sqrtExp: sqrtExp,
		legExp:  legExp,
		byteLen: (p.BitLen() + 7) / 8,
		mont:    newMont(p),
	}, nil
}

// P returns a copy of the field modulus.
func (f *Field) P() *big.Int { return new(big.Int).Set(f.p) }

// BitLen returns the bit length of the modulus.
func (f *Field) BitLen() int { return f.p.BitLen() }

// ByteLen returns the fixed byte width of a serialised element.
func (f *Field) ByteLen() int { return f.byteLen }

// Reduce returns a mod q as a canonical representative in [0, q).
func (f *Field) Reduce(a *big.Int) *big.Int {
	return new(big.Int).Mod(a, f.p)
}

// IsCanonical reports whether a is already reduced into [0, q).
func (f *Field) IsCanonical(a *big.Int) bool {
	return a.Sign() >= 0 && a.Cmp(f.p) < 0
}

// Add returns a + b mod q.
func (f *Field) Add(a, b *big.Int) *big.Int {
	s := new(big.Int).Add(a, b)
	return s.Mod(s, f.p)
}

// Sub returns a − b mod q.
func (f *Field) Sub(a, b *big.Int) *big.Int {
	s := new(big.Int).Sub(a, b)
	return s.Mod(s, f.p)
}

// Neg returns −a mod q.
func (f *Field) Neg(a *big.Int) *big.Int {
	s := new(big.Int).Neg(a)
	return s.Mod(s, f.p)
}

// Mul returns a · b mod q.
func (f *Field) Mul(a, b *big.Int) *big.Int {
	s := new(big.Int).Mul(a, b)
	return s.Mod(s, f.p)
}

// Sqr returns a² mod q.
func (f *Field) Sqr(a *big.Int) *big.Int {
	s := new(big.Int).Mul(a, a)
	return s.Mod(s, f.p)
}

// Inv returns a⁻¹ mod q, or ErrNotInvertible if a ≡ 0. The zero test rides
// on ModInverse itself (it returns nil exactly when no inverse exists)
// instead of allocating a full reduction just to probe the sign.
func (f *Field) Inv(a *big.Int) (*big.Int, error) {
	invOps.Add(1)
	inv := new(big.Int).ModInverse(a, f.p)
	if inv == nil {
		return nil, ErrNotInvertible
	}
	return inv, nil
}

// Exp returns a^e mod q. Negative exponents are resolved through inversion,
// reusing the inverse's allocation for the result instead of allocating a
// second big.Int for the negated exponent's power.
func (f *Field) Exp(a, e *big.Int) *big.Int {
	if e.Sign() < 0 {
		inv := new(big.Int).ModInverse(a, f.p)
		if inv == nil {
			// 0^negative has no value in the field; return 0 to keep the
			// function total (callers never feed it, Inv is the checked path).
			return new(big.Int)
		}
		return inv.Exp(inv, new(big.Int).Neg(e), f.p)
	}
	return new(big.Int).Exp(a, e, f.p)
}

// Legendre returns the Legendre symbol (a/q): 1 if a is a non-zero QR,
// −1 if a is a non-residue, and 0 if a ≡ 0.
func (f *Field) Legendre(a *big.Int) int {
	r := new(big.Int).Exp(new(big.Int).Mod(a, f.p), f.legExp, f.p)
	switch {
	case r.Sign() == 0:
		return 0
	case r.Cmp(bigOne) == 0:
		return 1
	default:
		return -1
	}
}

// Sqrt returns a square root of a, exploiting q ≡ 3 (mod 4):
// if a is a QR then a^((q+1)/4) is a root. Returns ErrNotSquare otherwise.
func (f *Field) Sqrt(a *big.Int) (*big.Int, error) {
	a = f.Reduce(a)
	if a.Sign() == 0 {
		return big.NewInt(0), nil
	}
	r := new(big.Int).Exp(a, f.sqrtExp, f.p)
	if f.Sqr(r).Cmp(a) != 0 {
		return nil, ErrNotSquare
	}
	return r, nil
}

// Rand returns a uniformly random canonical element using the given source,
// which defaults to crypto/rand when nil.
func (f *Field) Rand(r io.Reader) (*big.Int, error) {
	if r == nil {
		r = rand.Reader
	}
	v, err := rand.Int(r, f.p)
	if err != nil {
		return nil, fmt.Errorf("ff: drawing random element: %w", err)
	}
	return v, nil
}

// RandNonZero returns a uniformly random non-zero canonical element.
func (f *Field) RandNonZero(r io.Reader) (*big.Int, error) {
	for {
		v, err := f.Rand(r)
		if err != nil {
			return nil, err
		}
		if v.Sign() != 0 {
			return v, nil
		}
	}
}

// ToBytes serialises a into the field's fixed big-endian width.
func (f *Field) ToBytes(a *big.Int) []byte {
	return f.Reduce(a).FillBytes(make([]byte, f.byteLen))
}

// FromBytes parses a fixed-width big-endian encoding produced by ToBytes.
// It rejects encodings of the wrong length or of values ≥ q.
func (f *Field) FromBytes(b []byte) (*big.Int, error) {
	if len(b) != f.byteLen {
		return nil, fmt.Errorf("%w: got %d bytes, want %d", ErrBadEncoding, len(b), f.byteLen)
	}
	v := new(big.Int).SetBytes(b)
	if v.Cmp(f.p) >= 0 {
		return nil, fmt.Errorf("%w: value not canonical", ErrBadEncoding)
	}
	return v, nil
}

// Equal reports whether a ≡ b (mod q).
func (f *Field) Equal(a, b *big.Int) bool {
	return f.Reduce(a).Cmp(f.Reduce(b)) == 0
}

var bigOne = big.NewInt(1)
