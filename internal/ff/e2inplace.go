package ff

import "math/big"

// This file holds the allocation-free big.Int variants of the F_q²
// operations the affine reference Miller loop (pairing.PairReference) runs
// on: the immutable API in e2.go allocates three to five big.Ints per call,
// while the Into variants write through a caller-owned destination and draw
// their temporaries from an explicit E2Scratch. ExpWindowed, the GT ladder,
// runs on the limb core (monte2.go).

// E2Scratch holds the temporaries the in-place F_q² routines need. A scratch
// value is not safe for concurrent use; each goroutine (or each pairing
// evaluation) owns its own.
type E2Scratch struct {
	t0, t1, t2, t3 *big.Int
}

// NewE2Scratch returns a ready-to-use scratch space.
func NewE2Scratch() *E2Scratch {
	return &E2Scratch{
		t0: new(big.Int),
		t1: new(big.Int),
		t2: new(big.Int),
		t3: new(big.Int),
	}
}

// SqrInto sets dst = x² without allocating. dst may alias x.
func (e *Ext) SqrInto(s *E2Scratch, dst, x *E2) {
	p := e.F.p
	s.t0.Add(x.A, x.B)
	s.t1.Sub(x.A, x.B)
	s.t0.Mul(s.t0, s.t1) // (a+b)(a−b) = a² − b²
	s.t1.Mul(x.A, x.B)
	s.t1.Lsh(s.t1, 1) // 2ab
	dst.A.Mod(s.t0, p)
	dst.B.Mod(s.t1, p)
}

// MulSparseInto sets dst = x·(c0 + c1·i) for base-field coefficients c0, c1.
// This is the shape of every Miller-loop line value, where schoolbook
// multiplication with the known-sparse operand beats the generic path.
// dst may alias x.
func (e *Ext) MulSparseInto(s *E2Scratch, dst, x *E2, c0, c1 *big.Int) {
	p := e.F.p
	s.t0.Mul(x.A, c0)
	s.t1.Mul(x.B, c1)
	s.t0.Sub(s.t0, s.t1) // a·c0 − b·c1
	s.t2.Mul(x.A, c1)
	s.t3.Mul(x.B, c0)
	s.t2.Add(s.t2, s.t3) // a·c1 + b·c0
	dst.A.Mod(s.t0, p)
	dst.B.Mod(s.t2, p)
}

// ExpWindowed returns x^k with the width-4 sliding window of
// Mont.E2ExpWindowed: one squaring per exponent bit plus one multiplication
// per non-zero window (≈ bitlen/5 on average), against one per set bit
// (≈ bitlen/2) for the plain Exp ladder, which stays as its reference. The
// element converts into the Montgomery domain once, every squaring and
// multiplication is a limb product, and the result converts out once.
// Negative exponents invert first, exactly like Exp.
func (e *Ext) ExpWindowed(x *E2, k *big.Int) (*E2, error) {
	if k.Sign() < 0 {
		inv, err := e.Inv(x)
		if err != nil {
			return nil, err
		}
		return e.ExpWindowed(inv, new(big.Int).Neg(k))
	}
	m := e.F.Mont()
	var xm, out E2Fel
	m.E2FromE2(&xm, x)
	m.E2ExpWindowed(&out, &xm, k)
	return m.E2ToE2(&out), nil
}
