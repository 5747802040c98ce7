package curve

import (
	mrand "math/rand"
	"testing"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// laneTestBatch returns n pairs over affine points of c in the limb domain,
// drawn from next: mostly regular (distinct x) with doublings, opposite
// pairs and identity operands mixed in, and some pairs writing over their
// own a.
func laneTestBatch(c *Curve, rng *mrand.Rand, next func() *Point, n int) ([]montAffine, []addPair) {
	m := c.mont()
	pts := make([]montAffine, 3*n)
	pairs := make([]addPair, n)
	for k := range pairs {
		p, q := next(), next()
		switch rng.Intn(10) {
		case 0: // a doubling
			q = p
		case 1: // opposite points
			q = c.Neg(p)
		case 2: // an identity operand
			p = c.Infinity()
		case 3:
			q = c.Infinity()
		}
		a, b := 2*k, 2*k+1
		pts[a], pts[b] = toMontAffine(m, p), toMontAffine(m, q)
		dst := 2*n + k
		if rng.Intn(4) == 0 {
			dst = a // the pair writes over its own a
		}
		pairs[k] = addPair{dst: int32(dst), a: int32(a), b: int32(b)}
	}
	return pts, pairs
}

// TestLaneBatchAddMatchesScalar runs montBatchAdd's lane path and its scalar
// path on the same batches of 1 to 33 pairs at type-a-512 and demands the
// same points, limb for limb, and the sums Curve.Add returns.
func TestLaneBatchAddMatchesScalar(t *testing.T) {
	if !ff.HasIFMA {
		t.Skip("no AVX-512 IFMA on this CPU or architecture: montBatchAdd has only its scalar path")
	}
	c := fastPathCurves(t)["type-a-512"]
	m := c.mont()
	rng := mrand.New(mrand.NewSource(53))
	p, err := c.RandPoint(rng)
	if err != nil {
		t.Fatal(err)
	}
	step, err := c.RandPoint(rng)
	if err != nil {
		t.Fatal(err)
	}
	next := func() *Point { p = c.Add(p, step); return p } // P + iQ: distinct, and cheap to draw
	for round := range 3 {
		for n := 1; n <= 33; n++ {
			pts, pairs := laneTestBatch(c, rng, next, n)
			in := append([]montAffine(nil), pts...)
			lanes := append([]montAffine(nil), pts...)
			c.montBatchAdd(m, lanes, pairs, new(bucketScratch))
			withScalarBatchAdd(func() { c.montBatchAdd(m, pts, pairs, new(bucketScratch)) })
			for i := range pts {
				if lanes[i] != pts[i] {
					t.Fatalf("round %d, %d pairs: point %d: lanes %+v, scalar %+v", round, n, i, lanes[i], pts[i])
				}
			}
			for _, pr := range pairs {
				want := c.Add(c.fromMontAffine(m, &in[pr.a]), c.fromMontAffine(m, &in[pr.b]))
				if got := c.fromMontAffine(m, &lanes[pr.dst]); !c.Equal(got, want) {
					t.Fatalf("round %d, %d pairs: pair %+v = %v, want %v", round, n, pr, got, want)
				}
			}
		}
	}
}

// TestLaneBatchAddOneInversion checks that a batch of regular pairs spends
// one field inversion on the lane path, as on the scalar path.
func TestLaneBatchAddOneInversion(t *testing.T) {
	if !ff.HasIFMA {
		t.Skip("no AVX-512 IFMA on this CPU or architecture: montBatchAdd has only its scalar path")
	}
	c := fastPathCurves(t)["type-a-512"]
	m := c.mont()
	rng := mrand.New(mrand.NewSource(8))
	pts := make([]montAffine, 60)
	pairs := make([]addPair, 20)
	for i := range pts[:40] {
		p, err := c.RandPoint(rng)
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = toMontAffine(m, p)
	}
	for k := range pairs {
		pairs[k] = addPair{dst: int32(40 + k), a: int32(2 * k), b: int32(2*k + 1)}
	}
	before := ff.InvOps()
	c.montBatchAdd(m, pts, pairs, new(bucketScratch))
	if n := ff.InvOps() - before; n != 1 {
		t.Fatalf("20 regular pairs spent %d inversions, want 1", n)
	}
}
