package curve

import (
	"encoding/binary"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// This file is the limb-domain counterpart of jacobian.go's reference
// formulas: dbl-2007-bl / madd-2007-bl / add-2007-bl, with every field
// operation a fixed-width Montgomery limb operation instead of a
// big.Int.Mul followed by a dividing Mod. Table entries convert into the
// domain once at construction; scalar walks then run start to finish
// without touching big.Int, converting back only for the final affine
// result. Every ff.Field has a limb context, so this is the only product
// arithmetic; the big.Int forms are the reference the tests pin it against.

// maxParallelism bounds the worker fan-out of the parallel multi-
// exponentiation paths (MultiExpTable.MultiExp and its build,
// Curve.MulConstTimeEach). It is a process-wide bound shared with
// core.Manager: SetParallelism on the manager forwards here, so one knob
// sizes both the per-partition ECALL pool and the intra-operation curve
// parallelism.
var maxParallelism atomic.Int32

func init() { maxParallelism.Store(int32(runtime.NumCPU())) }

// SetMaxParallelism bounds the worker pool of the parallel multi-
// exponentiation paths; n < 1 is clamped to 1 (serial).
func SetMaxParallelism(n int) {
	if n < 1 {
		n = 1
	}
	maxParallelism.Store(int32(n))
}

// MaxParallelism returns the current bound.
func MaxParallelism() int { return int(maxParallelism.Load()) }

// montAffine is an affine point with Montgomery-domain coordinates, the
// element type of every precomputed table.
type montAffine struct {
	x, y ff.Fel
	inf  bool
}

// montJac is a Jacobian point (X/Z², Y/Z³) in the Montgomery domain;
// Z = 0 encodes infinity.
type montJac struct {
	x, y, z ff.Fel
}

// mont returns the curve's limb context (the base field's).
func (c *Curve) mont() *ff.Mont { return c.F.Mont() }

// toMontAffine converts an affine big.Int point into the domain.
func toMontAffine(m *ff.Mont, p *Point) montAffine {
	if p.Inf {
		return montAffine{inf: true}
	}
	var a montAffine
	m.FromBig(&a.x, p.X)
	m.FromBig(&a.y, p.Y)
	return a
}

// setInfinity marks j as the identity.
func (j *montJac) setInfinity(m *ff.Mont) {
	m.SetOne(&j.x)
	m.SetOne(&j.y)
	m.SetZero(&j.z)
}

// setAffine loads an affine table entry (Z = 1 in the Montgomery domain).
func (j *montJac) setAffine(m *ff.Mont, a *montAffine) {
	j.x = a.x
	j.y = a.y
	m.SetOne(&j.z)
}

// montFromJac converts back to a big.Int affine Point (one field inversion).
// The point is public: the inversion is not blinded.
func (c *Curve) montFromJac(m *ff.Mont, j *montJac) *Point {
	return c.fromMontAffine(m, &montNormalize(m, []montJac{*j}, nil)[0])
}

// montOddMultiples returns [1P, 3P, 5P, …, (2n−1)P] for an affine P ≠ ∞ as
// a Montgomery-domain table: the chain P, P + 2P, … runs in limb Jacobian
// arithmetic and montNormalize brings it to affine with one inversion. This
// is the per-call table of the variable-base walks.
func (c *Curve) montOddMultiples(m *ff.Mont, p *Point, n int) []montAffine {
	js := make([]montJac, n)
	base := toMontAffine(m, p)
	js[0].setAffine(m, &base)
	if n > 1 {
		two := js[0]
		c.montDouble(m, &two)
		for i := 1; i < n; i++ {
			js[i] = js[i-1]
			c.montAdd(m, &js[i], &two)
		}
	}
	return montNormalize(m, js, nil)
}

// montOddMultiplesRows fills rows[i] with [1P, 3P, …, (2n−1)P] for every
// points[i], the build of a long-lived table, in affine form throughout: one
// batch doubles every base, then step j of every base's chain — adding 2P to
// its (2j−1)P — is one batch of affine additions (montBatchAdd), one field
// inversion per step for the whole block of bases. An identity base gets a
// row of identities. The rows share one backing array, which also holds the
// block's 2P points past its last row.
func (c *Curve) montOddMultiplesRows(m *ff.Mont, points []*Point, n int, rows [][]montAffine) {
	np := len(points)
	twoAt := np * n
	pts := make([]montAffine, twoAt+np)
	pairs := make([]addPair, np)
	pre := make([]ff.Fel, np)
	for i, p := range points {
		pts[i*n] = toMontAffine(m, p)
		pairs[i] = addPair{dst: int32(twoAt + i), a: int32(i * n), b: int32(i * n)}
	}
	c.montBatchAdd(m, pts, pairs, pre)
	for j := 1; j < n; j++ {
		for i := range pairs {
			pairs[i] = addPair{dst: int32(i*n + j), a: int32(i*n + j - 1), b: int32(twoAt + i)}
		}
		c.montBatchAdd(m, pts, pairs, pre)
	}
	for i := range rows {
		rows[i] = pts[i*n : (i+1)*n : (i+1)*n]
	}
}

// addPair names one addition of a batch: pts[dst] = pts[a] + pts[b].
type addPair struct{ dst, a, b int32 }

// montBatchAdd runs every addition of pairs on the affine points pts, sharing
// one field inversion among all of them (Montgomery's simultaneous-inversion
// trick, Math. Comp. 1987): the forward pass multiplies the pairs' slope
// denominators into a running product, stashing each prefix in pre; one
// Mont.Inv inverts the product; the backward pass peels each denominator's
// inverse off it and finishes that pair's affine addition. An addition costs
// about five multiplications and a squaring, against a Jacobian mixed
// addition's seven and four, and its result needs no normalisation.
//
// A pair with x₁ = x₂ is a doubling when the points are equal (slope
// denominator 2y, still in the batch) and the identity when they are
// opposite; an identity operand yields the other. The branches depend on the
// points, so the batch is variable-time: it serves public bases only (the
// public key's multi-exp table and its evaluation).
//
// No pair's dst may be another pair's a or b (its own a or b may be): the
// backward pass re-reads the operands. pre needs len(pairs) elements.
func (c *Curve) montBatchAdd(m *ff.Mont, pts []montAffine, pairs []addPair, pre []ff.Fel) {
	var acc, d ff.Fel
	m.SetOne(&acc)
	batched := false
	for k, pr := range pairs {
		if !montSlopeDen(m, &d, &pts[pr.a], &pts[pr.b]) {
			continue
		}
		pre[k] = acc
		m.Mul(&acc, &acc, &d)
		batched = true
	}
	var inv ff.Fel
	if batched && !m.Inv(&inv, &acc) {
		// See the montNormalize panic rationale.
		panic("curve: montBatchAdd: product of non-zero slope denominators is not invertible")
	}
	for k := len(pairs) - 1; k >= 0; k-- {
		pr := pairs[k]
		p, q := pts[pr.a], pts[pr.b] // copies: dst may be a or b
		out := &pts[pr.dst]
		if !montSlopeDen(m, &d, &p, &q) {
			switch {
			case p.inf:
				*out = q
			case q.inf:
				*out = p
			default:
				*out = montAffine{inf: true}
			}
			continue
		}
		var dInv, num, lam, t ff.Fel
		m.Mul(&dInv, &inv, &pre[k])
		m.Mul(&inv, &inv, &d)
		if m.Equal(&p.x, &q.x) {
			m.Sqr(&num, &p.x)
			m.Add(&t, &num, &num)
			m.Add(&num, &num, &t)
			m.SetOne(&t)
			m.Add(&num, &num, &t) // 3x² + 1 (a = 1)
		} else {
			m.Sub(&num, &q.y, &p.y)
		}
		m.Mul(&lam, &num, &dInv)
		m.Sqr(&out.x, &lam)
		m.Sub(&out.x, &out.x, &p.x)
		m.Sub(&out.x, &out.x, &q.x) // x₃ = λ² − x₁ − x₂
		m.Sub(&t, &p.x, &out.x)
		m.Mul(&t, &lam, &t)
		m.Sub(&out.y, &t, &p.y) // y₃ = λ(x₁ − x₃) − y₁
		out.inf = false
	}
}

// montSlopeDen sets d to the slope denominator of p + q — x₂ − x₁, or 2y for
// a doubling — and reports whether the sum needs one; it does not when an
// operand is the identity or the sum is (q = −p, or a doubling with y = 0).
func montSlopeDen(m *ff.Mont, d *ff.Fel, p, q *montAffine) bool {
	if p.inf || q.inf {
		return false
	}
	if !m.Equal(&p.x, &q.x) {
		m.Sub(d, &q.x, &p.x)
		return true
	}
	if !m.Equal(&p.y, &q.y) || m.IsZero(&p.y) {
		return false
	}
	m.Dbl(d, &p.y)
	return true
}

// montOddWindowRows returns the rows of a signed-window fixed-base table for
// an affine P ≠ ∞: row i holds d·2^(w·i)·P for the odd d = 1, 3, …,
// 2^w − 1. The chains run in limb Jacobian arithmetic and the whole table
// shares one montNormalize.
func (c *Curve) montOddWindowRows(m *ff.Mont, p *Point, rows int, w uint) [][]montAffine {
	per := 1 << (w - 1)
	js := make([]montJac, 0, rows*per)
	var cur montJac
	base := toMontAffine(m, p)
	cur.setAffine(m, &base)
	for i := 0; i < rows; i++ {
		step, d := cur, cur
		c.montDouble(m, &step)
		js = append(js, d)
		for j := 1; j < per; j++ {
			c.montAdd(m, &d, &step)
			js = append(js, d)
		}
		for b := uint(0); b < w; b++ {
			c.montDouble(m, &cur)
		}
	}
	aff := montNormalize(m, js, nil)
	out := make([][]montAffine, rows)
	for i := range out {
		out[i] = aff[i*per : (i+1)*per : (i+1)*per]
	}
	return out
}

// montNormalize converts js to affine with one field inversion, Montgomery's
// simultaneous-inversion trick: invert the product of the non-zero Z's once,
// then peel per-point inverses off the running product back to front, one
// inversion plus 3(N−1) multiplications for N points instead of N
// inversions. Z = 0 entries come back as infinity. A non-nil rho blinds the
// inversion for points that depend on a secret: the variable-time
// big.Int.ModInverse then sees the product times the random non-zero rho,
// whose inverse times rho is the product's, at two extra multiplications.
func montNormalize(m *ff.Mont, js []montJac, rho *ff.Fel) []montAffine {
	out := make([]montAffine, len(js))
	prefix := make([]ff.Fel, len(js)) // prefix[i] = product of the non-zero Z's before i
	var acc ff.Fel
	m.SetOne(&acc)
	for i := range js {
		prefix[i] = acc
		if !m.IsZero(&js[i].z) {
			m.Mul(&acc, &acc, &js[i].z)
		}
	}
	if rho != nil {
		m.Mul(&acc, &acc, rho)
	}
	var inv ff.Fel
	if !m.Inv(&inv, &acc) {
		// Every factor is non-zero, so the product is invertible; see the
		// fromJacobian panic rationale.
		panic("curve: montNormalize: product of non-zero Z's is not invertible")
	}
	if rho != nil {
		m.Mul(&inv, &inv, rho)
	}
	for i := len(js) - 1; i >= 0; i-- {
		j := &js[i]
		if m.IsZero(&j.z) {
			out[i].inf = true
			continue
		}
		var zInv, zInv2 ff.Fel
		m.Mul(&zInv, &inv, &prefix[i])
		m.Mul(&inv, &inv, &j.z) // drop z_i from the running inverse
		m.Sqr(&zInv2, &zInv)
		m.Mul(&out[i].x, &j.x, &zInv2)
		m.Mul(&zInv, &zInv2, &zInv)
		m.Mul(&out[i].y, &j.y, &zInv)
	}
	return out
}

// montDouble sets p = 2p in place: dbl-2007-bl for a = 1, identical to
// jacobianDouble but with every Mul/Sqr a CIOS product.
func (c *Curve) montDouble(m *ff.Mont, p *montJac) {
	if m.IsZero(&p.z) || m.IsZero(&p.y) {
		p.setInfinity(m)
		return
	}
	var yy, s, zz, mm, t, x3, y3, z3 ff.Fel
	m.Sqr(&yy, &p.y)       // Y²
	m.Mul(&s, &p.x, &yy)   // X·Y²
	m.Dbl(&s, &s)          //
	m.Dbl(&s, &s)          // S = 4XY²
	m.Sqr(&zz, &p.z)       // Z²
	m.Sqr(&mm, &zz)        // Z⁴
	m.Sqr(&t, &p.x)        // X²
	m.Add(&mm, &mm, &t)    //
	m.Add(&mm, &mm, &t)    //
	m.Add(&mm, &mm, &t)    // M = 3X² + Z⁴
	m.Sqr(&x3, &mm)        // M²
	m.Sub(&x3, &x3, &s)    //
	m.Sub(&x3, &x3, &s)    // X₃ = M² − 2S
	m.Sub(&t, &s, &x3)     // S − X₃
	m.Mul(&y3, &mm, &t)    // M(S − X₃)
	m.Sqr(&t, &yy)         // Y⁴
	m.Dbl(&t, &t)          //
	m.Dbl(&t, &t)          //
	m.Dbl(&t, &t)          // 8Y⁴
	m.Sub(&y3, &y3, &t)    // Y₃
	m.Mul(&z3, &p.y, &p.z) // YZ
	m.Dbl(&z3, &z3)        // Z₃ = 2YZ
	p.x, p.y, p.z = x3, y3, z3
}

// montAddAffine sets p = p + q in place (mixed addition, madd-2007-bl).
func (c *Curve) montAddAffine(m *ff.Mont, p *montJac, q *montAffine) {
	if q.inf {
		return
	}
	if m.IsZero(&p.z) {
		p.setAffine(m, q)
		return
	}
	var zz, u2, s2, h, r ff.Fel
	m.Sqr(&zz, &p.z) // Z²
	m.Mul(&u2, &q.x, &zz)
	m.Mul(&s2, &zz, &p.z)
	m.Mul(&s2, &q.y, &s2)
	m.Sub(&h, &u2, &p.x)
	m.Sub(&r, &s2, &p.y)
	if m.IsZero(&h) {
		if m.IsZero(&r) {
			c.montDouble(m, p)
			return
		}
		p.setInfinity(m)
		return
	}
	var h2, h3, v, x3, y3, t ff.Fel
	m.Sqr(&h2, &h)
	m.Mul(&h3, &h2, &h)
	m.Mul(&v, &p.x, &h2)
	m.Sqr(&x3, &r)
	m.Sub(&x3, &x3, &h3)
	m.Sub(&x3, &x3, &v)
	m.Sub(&x3, &x3, &v) // X₃ = R² − H³ − 2V
	m.Sub(&t, &v, &x3)
	m.Mul(&y3, &r, &t)
	m.Mul(&t, &p.y, &h3)
	m.Sub(&y3, &y3, &t) // Y₃ = R(V − X₃) − Y·H³
	m.Mul(&p.z, &p.z, &h)
	p.x, p.y = x3, y3
}

// montAddNegAffine adds −q (the mixed addition with the entry's y negated),
// the shape every negative w-NAF digit needs.
func (c *Curve) montAddNegAffine(m *ff.Mont, p *montJac, q *montAffine) {
	if q.inf {
		return
	}
	neg := montAffine{x: q.x}
	m.Neg(&neg.y, &q.y)
	c.montAddAffine(m, p, &neg)
}

// montAdd sets p = p + q for two Jacobian points (add-2007-bl), used to fold
// the per-worker partial sums of the parallel walks.
func (c *Curve) montAdd(m *ff.Mont, p, q *montJac) {
	if m.IsZero(&q.z) {
		return
	}
	if m.IsZero(&p.z) {
		*p = *q
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2, h, r, t ff.Fel
	m.Sqr(&z1z1, &p.z)
	m.Sqr(&z2z2, &q.z)
	m.Mul(&u1, &p.x, &z2z2)
	m.Mul(&u2, &q.x, &z1z1)
	m.Mul(&t, &q.z, &z2z2)
	m.Mul(&s1, &p.y, &t)
	m.Mul(&t, &p.z, &z1z1)
	m.Mul(&s2, &q.y, &t)
	m.Sub(&h, &u2, &u1)
	m.Sub(&r, &s2, &s1)
	if m.IsZero(&h) {
		if m.IsZero(&r) {
			c.montDouble(m, p)
			return
		}
		p.setInfinity(m)
		return
	}
	var h2, h3, v, x3, y3, z3 ff.Fel
	m.Sqr(&h2, &h)
	m.Mul(&h3, &h2, &h)
	m.Mul(&v, &u1, &h2)
	m.Sqr(&x3, &r)
	m.Sub(&x3, &x3, &h3)
	m.Sub(&x3, &x3, &v)
	m.Sub(&x3, &x3, &v)
	m.Sub(&t, &v, &x3)
	m.Mul(&y3, &r, &t)
	m.Mul(&t, &s1, &h3)
	m.Sub(&y3, &y3, &t)
	m.Mul(&z3, &p.z, &q.z)
	m.Mul(&z3, &z3, &h)
	p.x, p.y, p.z = x3, y3, z3
}

// parallelRanges splits n items into at most MaxParallelism contiguous
// chunks of at least minChunk items and runs fn on each concurrently. With a
// single chunk fn runs inline — the serial path spawns nothing.
func parallelRanges(n, minChunk int, fn func(lo, hi int)) {
	workers := MaxParallelism()
	if workers > n/minChunk {
		workers = n / minChunk
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// scalarToLimbs returns e (0 ≤ e < 2^(64·n)) as n little-endian 64-bit
// limbs, so the constant-time recoding is plain shifts over a fixed-size
// array instead of data-dependent big.Int bit probing. It goes through
// big-endian bytes rather than e.Bits(), whose words are 32 bits wide on
// 386 and arm.
func scalarToLimbs(e *big.Int, n int) []uint64 {
	buf := make([]byte, 8*n)
	e.FillBytes(buf)
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(buf[8*(n-1-i):])
	}
	return out
}
