package curve

import (
	"math/big"
	"sync"
)

// MultiExpTable holds batch-normalized odd multiples of a fixed vector of
// points (the public key's h^γ^i powers), ready for interleaved Straus
// multi-exponentiation: one shared doubling chain for all bases plus one
// mixed addition per non-zero w-NAF digit of any scalar.
//
// With the limb core available the table is built and kept in the
// Montgomery domain only; the big.Int form exists only for fields too wide
// for it.
//
// A MultiExpTable is immutable after construction and safe for concurrent
// use.
type MultiExpTable struct {
	c    *Curve
	w    uint           // w-NAF width the table was built for
	n    int            // number of base points
	modd [][]montAffine // modd[i][j] = (2j+1) · points[i], limb domain
	odd  [][]*Point     // the same, big.Int form, when c.mont() is nil
}

// NewMultiExpTable precomputes the odd multiples 1P_i, 3P_i, …,
// (2^(w−1)−1)P_i of every point at the wide multiExpWindow: the table is
// meant to be kept and re-used (its bases are the public key's), so its
// build cost buys fewer additions on every evaluation.
func (c *Curve) NewMultiExpTable(points []*Point) *MultiExpTable {
	return c.newMultiExpTable(points, multiExpWindow)
}

// newMultiExpTable builds the odd-multiple table of points at width w.
func (c *Curve) newMultiExpTable(points []*Point, w uint) *MultiExpTable {
	t := &MultiExpTable{c: c, w: w, n: len(points)}
	per := 1 << (w - 2)
	if m := c.mont(); m != nil {
		t.modd = make([][]montAffine, len(points))
		parallelRanges(len(points), 16, func(lo, hi int) {
			c.montOddMultiplesRows(m, points[lo:hi], per, t.modd[lo:hi])
		})
		return t
	}
	js := make([]*jacobianPoint, 0, len(points)*per)
	for _, p := range points {
		if p.Inf {
			for j := 0; j < per; j++ {
				js = append(js, c.jacobianInfinity())
			}
			continue
		}
		jp := c.toJacobian(p)
		js = append(js, jp)
		twoP := c.jacobianDouble(jp)
		for j := 1; j < per; j++ {
			jp = c.jacobianAdd(jp, twoP)
			js = append(js, jp)
		}
	}
	aff := c.batchNormalize(js)
	t.odd = make([][]*Point, len(points))
	for i := range points {
		t.odd[i] = aff[i*per : (i+1)*per]
	}
	return t
}

// Len returns the number of base points in the table.
func (t *MultiExpTable) Len() int { return t.n }

// MultiExp returns Σ_i (scalars[i] mod r) · points[offset+i] via interleaved
// Straus evaluation: the doubling chain is shared across every base, so n
// scalars of b bits cost b doublings plus ≈ n·b/(w+1) mixed additions
// instead of n·(b doublings + b/2 additions) for n independent
// multiplications. A nil scalar counts as zero. offset+len(scalars) must
// not exceed Len.
//
// With the limb core available the evaluation runs in the Montgomery domain
// and, for large enough batches, is digit-parallel: the bases split into
// contiguous chunks across at most MaxParallelism workers, each walking its
// own doubling chain, and the per-chunk partial sums fold together with
// general Jacobian additions. The chunk doubling chains are redundant work,
// but for the m ≥ 64 IBBE decrypt sizes the per-digit additions dominate and
// the split wins wall-clock.
func (t *MultiExpTable) MultiExp(scalars []*big.Int, offset int) *Point {
	if offset < 0 || offset+len(scalars) > t.n {
		// Checked here, before any worker starts, so the caller's goroutine
		// is the one that panics.
		panic("curve: MultiExpTable.MultiExp: scalars run past the table")
	}
	c := t.c
	digits := make([][]int8, len(scalars))
	maxLen := 0
	k := new(big.Int)
	for i, s := range scalars {
		if s == nil {
			continue
		}
		if k.Mod(s, c.R).Sign() == 0 {
			continue
		}
		digits[i] = wnafDigits(k, t.w)
		maxLen = max(maxLen, len(digits[i]))
	}
	if m := c.mont(); m != nil {
		var acc montJac
		acc.setInfinity(m)
		var mu sync.Mutex
		parallelRanges(len(digits), 16, func(lo, hi int) {
			part := c.montWalkDigits(m, t.modd, digits, lo, hi, maxLen, offset)
			mu.Lock()
			c.montAdd(m, &acc, &part)
			mu.Unlock()
		})
		return c.montFromJac(m, &acc)
	}
	acc := c.jacobianInfinity()
	f := c.F
	for b := maxLen - 1; b >= 0; b-- {
		acc = c.jacobianDouble(acc)
		for i, dg := range digits {
			if b >= len(dg) || dg[b] == 0 {
				continue
			}
			d := dg[b]
			var e *Point
			if d > 0 {
				e = t.odd[offset+i][(d-1)/2]
				if e.Inf {
					continue
				}
				acc = c.jacobianAddAffine(acc, e.X, e.Y)
			} else {
				e = t.odd[offset+i][(-d-1)/2]
				if e.Inf {
					continue
				}
				acc = c.jacobianAddAffine(acc, e.X, f.Neg(e.Y))
			}
		}
	}
	return c.fromJacobian(acc)
}

// MultiExp is the one-shot convenience form: it builds a throwaway table for
// points at the narrow scalarWindow (a wide table would cost more to build
// than one evaluation saves) and evaluates Σ scalars[i]·points[i]. Repeated
// callers (the IBBE public-key hot paths) should hold a MultiExpTable
// instead. More scalars than points is a caller indexing bug; silently
// truncating would return a partial sum that looks like a valid group
// element.
func (c *Curve) MultiExp(points []*Point, scalars []*big.Int) *Point {
	if len(scalars) > len(points) {
		panic("curve: MultiExp: more scalars than points")
	}
	return c.newMultiExpTable(points[:len(scalars)], scalarWindow).MultiExp(scalars, 0)
}
