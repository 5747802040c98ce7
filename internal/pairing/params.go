// Package pairing implements the Type-A symmetric pairing used by the
// IBBE-SGX artifact: the modified Tate pairing ê(P, Q) = f_{r,P}(φ(Q))^((q²−1)/r)
// on the supersingular curve y² = x³ + x over F_q, with embedding degree 2
// and distortion map φ(x, y) = (−x, i·y).
//
// This package replaces the PBC library the paper built on. Parameters are
// generated exactly like PBC generates `a.param`: fix a Solinas prime
// r = 2^a + 2^b + 1 as the group order, then search for a cofactor h
// (divisible by 4) such that q = h·r − 1 is a prime ≡ 3 (mod 4).
package pairing

import (
	"errors"
	"fmt"
	"math/big"

	"github.com/ibbesgx/ibbesgx/internal/curve"
	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// Params bundles everything needed to compute pairings: the base field, the
// curve group G1 (= G2 in the symmetric setting), the extension field hosting
// GT, and precomputed exponents.
type Params struct {
	// Q is the base-field prime (q ≡ 3 mod 4).
	Q *big.Int
	// R is the prime order of G1 and GT.
	R *big.Int
	// H is the cofactor, q + 1 = H·R.
	H *big.Int
	// F is F_q and E2 its quadratic extension (home of GT).
	F  *ff.Field
	E2 *ff.Ext
	// G1 is the order-R curve subgroup.
	G1 *curve.Curve
	// Zr is the scalar field Z_r (exponent arithmetic).
	Zr *ff.Field

	// name identifies the parameter set for serialisation headers.
	name string
}

// Name returns the identifier of this parameter set ("type-a-512", …).
func (p *Params) Name() string { return p.name }

// Generate searches for Type-A parameters with the given Solinas exponents
// for r = 2^expHigh + 2^expLow + 1 and a target bit length for q. The search
// is deterministic: the cofactor starts at the smallest multiple of 4 giving
// qBits bits and increases until q = h·r − 1 is prime. This is the same
// procedure PBC's `pbc_param_init_a_gen` follows (modulo its random start).
// A qBits wider than the limb core's 64·ff.MaxLimbs bits fails before the
// search.
func Generate(expHigh, expLow, qBits int) (*Params, error) {
	if expHigh <= expLow || expLow <= 1 {
		return nil, errors.New("pairing: need expHigh > expLow > 1")
	}
	if qBits > 64*ff.MaxLimbs {
		return nil, fmt.Errorf("pairing: %w: qBits %d, limit %d", ff.ErrModulusTooWide, qBits, 64*ff.MaxLimbs)
	}
	one := big.NewInt(1)
	r := new(big.Int).Lsh(one, uint(expHigh))
	r.Add(r, new(big.Int).Lsh(one, uint(expLow)))
	r.Add(r, one)
	if !r.ProbablyPrime(30) {
		return nil, fmt.Errorf("pairing: r = 2^%d+2^%d+1 is not prime", expHigh, expLow)
	}
	if qBits <= r.BitLen()+2 {
		return nil, errors.New("pairing: qBits must exceed the bit length of r")
	}
	// h starts at 2^(qBits−1−rBits) rounded to a multiple of 4 so that
	// q = h·r − 1 has qBits bits and q ≡ 3 (mod 4) automatically
	// (h·r ≡ 0 mod 4 ⇒ q ≡ −1 ≡ 3 mod 4).
	h := new(big.Int).Lsh(one, uint(qBits-r.BitLen()))
	four := big.NewInt(4)
	h.And(h, new(big.Int).Not(big.NewInt(3))) // round down to multiple of 4
	if h.Sign() == 0 {
		h.Set(four)
	}
	q := new(big.Int)
	for i := 0; i < 1_000_000; i++ {
		q.Mul(h, r)
		q.Sub(q, one)
		if q.ProbablyPrime(30) {
			return newParams(q, r, h, fmt.Sprintf("type-a-%d", qBits))
		}
		h.Add(h, four)
	}
	return nil, errors.New("pairing: cofactor search exhausted")
}

// newParams wires up the field/curve structures after validating the
// arithmetic relations between q, r and h.
func newParams(q, r, h *big.Int, name string) (*Params, error) {
	f, err := ff.NewField(q)
	if err != nil {
		return nil, fmt.Errorf("pairing: base field: %w", err)
	}
	g1, err := curve.NewCurve(f, r, h)
	if err != nil {
		return nil, fmt.Errorf("pairing: curve group: %w", err)
	}
	zr, err := ff.NewFieldUnchecked(r)
	if err != nil {
		return nil, fmt.Errorf("pairing: scalar field: %w", err)
	}
	return &Params{
		Q:    new(big.Int).Set(q),
		R:    new(big.Int).Set(r),
		H:    new(big.Int).Set(h),
		F:    f,
		E2:   ff.NewExt(f),
		G1:   g1,
		Zr:   zr,
		name: name,
	}, nil
}

// mustParams parses decimal strings into a parameter set; used for the
// pre-generated constants below (outputs of cmd/paramgen).
func mustParams(name, qs, rs, hs string) *Params {
	q, ok1 := new(big.Int).SetString(qs, 10)
	r, ok2 := new(big.Int).SetString(rs, 10)
	h, ok3 := new(big.Int).SetString(hs, 10)
	if !ok1 || !ok2 || !ok3 {
		panic("pairing: corrupt built-in parameter literals: " + name)
	}
	p, err := newParams(q, r, h, name)
	if err != nil {
		panic("pairing: corrupt built-in parameters " + name + ": " + err.Error())
	}
	return p
}
