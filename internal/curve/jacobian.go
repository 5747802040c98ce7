package curve

import (
	"crypto/rand"
	"math/big"
)

// cryptoRandReader is the default entropy source for RandPoint.
var cryptoRandReader = rand.Reader

// jacobianPoint represents (X/Z², Y/Z³); Z = 0 encodes infinity.
type jacobianPoint struct {
	x, y, z *big.Int
}

func (c *Curve) jacobianInfinity() *jacobianPoint {
	return &jacobianPoint{x: big.NewInt(1), y: big.NewInt(1), z: big.NewInt(0)}
}

func (c *Curve) fromJacobian(j *jacobianPoint) *Point {
	if j.z.Sign() == 0 {
		return c.Infinity()
	}
	f := c.F
	zInv, err := f.Inv(j.z)
	if err != nil {
		// z ≢ 0 in a prime field is always invertible; reaching this branch
		// means the point (or the field) is corrupt, and silently returning
		// Infinity would let the corruption propagate as a "valid" result.
		panic("curve: fromJacobian: non-zero Z is not invertible: " + err.Error())
	}
	zInv2 := f.Sqr(zInv)
	x := f.Mul(j.x, zInv2)
	y := f.Mul(j.y, f.Mul(zInv2, zInv))
	return &Point{X: x, Y: y}
}

// jacobianDouble implements dbl-2007-bl for a = 1 (curve y² = x³ + x):
//
//	S  = 4·X·Y²,  M = 3·X² + Z⁴
//	X' = M² − 2S
//	Y' = M·(S − X') − 8·Y⁴
//	Z' = 2·Y·Z
func (c *Curve) jacobianDouble(p *jacobianPoint) *jacobianPoint {
	if p.z.Sign() == 0 || p.y.Sign() == 0 {
		return c.jacobianInfinity()
	}
	f := c.F
	y2 := f.Sqr(p.y)
	s := f.Mul(big.NewInt(4), f.Mul(p.x, y2))
	z2 := f.Sqr(p.z)
	m := f.Add(f.Mul(big.NewInt(3), f.Sqr(p.x)), f.Sqr(z2))
	x3 := f.Sub(f.Sqr(m), f.Add(s, s))
	y3 := f.Sub(f.Mul(m, f.Sub(s, x3)), f.Mul(big.NewInt(8), f.Sqr(y2)))
	z3 := f.Mul(f.Add(p.y, p.y), p.z)
	return &jacobianPoint{x: x3, y: y3, z: z3}
}

// jacobianAddAffine adds the affine point (qx, qy) to a Jacobian point p
// (mixed addition, madd-2007-bl), the step of the ScalarMultBinary reference
// ladder.
func (c *Curve) jacobianAddAffine(p *jacobianPoint, qx, qy *big.Int) *jacobianPoint {
	if p.z.Sign() == 0 {
		return &jacobianPoint{
			x: new(big.Int).Set(qx),
			y: new(big.Int).Set(qy),
			z: big.NewInt(1),
		}
	}
	f := c.F
	z1z1 := f.Sqr(p.z)
	u2 := f.Mul(qx, z1z1)
	s2 := f.Mul(qy, f.Mul(z1z1, p.z))
	h := f.Sub(u2, p.x)
	r := f.Sub(s2, p.y)
	if h.Sign() == 0 {
		if r.Sign() == 0 {
			return c.jacobianDouble(p)
		}
		return c.jacobianInfinity()
	}
	h2 := f.Sqr(h)
	h3 := f.Mul(h2, h)
	v := f.Mul(p.x, h2)
	x3 := f.Sub(f.Sub(f.Sqr(r), h3), f.Add(v, v))
	y3 := f.Sub(f.Mul(r, f.Sub(v, x3)), f.Mul(p.y, h3))
	z3 := f.Mul(p.z, h)
	return &jacobianPoint{x: x3, y: y3, z: z3}
}
