package curve

import (
	"math/big"
	"sync"

	"github.com/ibbesgx/ibbesgx/internal/ff"
)

// MultiExpTable holds affine odd multiples of a fixed vector of points (the
// public key's h^γ^i powers), ready for interleaved Straus
// multi-exponentiation: one shared doubling chain for all bases plus one
// addition per non-zero w-NAF digit of any scalar. The table is built and
// kept in the Montgomery domain.
//
// A MultiExpTable is immutable after construction and safe for concurrent
// use.
type MultiExpTable struct {
	c    *Curve
	w    uint           // w-NAF width the table was built for
	n    int            // number of base points
	modd [][]montAffine // modd[i][j] = (2j+1) · points[i], limb domain
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
	m := c.mont()
	t.modd = make([][]montAffine, len(points))
	parallelRanges(len(points), 16, func(lo, hi int) {
		c.montOddMultiplesRows(m, points[lo:hi], per, t.modd[lo:hi])
	})
	return t
}

// Len returns the number of base points in the table.
func (t *MultiExpTable) Len() int { return t.n }

// MultiExp returns Σ_i (scalars[i] mod r) · points[offset+i] via interleaved
// Straus evaluation: the doubling chain is shared across every base, so n
// scalars of b bits cost b doublings plus ≈ n·b/(w+1) additions instead of
// n·(b doublings + b/2 additions) for n independent multiplications. A nil
// scalar counts as zero. offset+len(scalars) must not exceed Len.
//
// The evaluation runs in the Montgomery domain (montBucketSum): the digit additions are batched affine additions, one
// field inversion per batched level, and only the fold over bit positions
// runs in Jacobian form. For 32 or more scalars the batched additions are
// parallel: the bit positions split into contiguous ranges across at most
// MaxParallelism workers, so the doubling chain still runs once. Bases and
// scalars are public (the IBBE decrypt's), which the variable-time batching
// requires.
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
	m := c.mont()
	acc := c.montBucketSum(m, t.modd[offset:offset+len(digits)], digits, maxLen)
	return c.montFromJac(m, &acc)
}

// bucketScratch is montBucketSum's working memory, pooled: a decrypt at
// m = 256 sums ≈ 4 500 digit points. The buckets (size, start, pts) and each
// worker's batch (pairs, pre) take one scratch each.
type bucketScratch struct {
	size, start []int32
	pts         []montAffine
	pairs       []addPair
	pre         []ff.Fel
}

var bucketPool = sync.Pool{New: func() any { return new(bucketScratch) }}

// montBucketSum returns Σ_i Σ_b digits[i][b]·2^b·odd[i][0] with the digit
// points grouped by bit position: bucket b holds ±odd[i][(|d|−1)/2] for every
// non-zero digit d = digits[i][b]. reduceBuckets brings every bucket down to
// its sum S_b, and Horner's rule folds Σ_b 2^b·S_b in Jacobian form: at most
// maxLen doublings and one mixed addition per non-empty position. With 32 or
// more scalars the positions split into contiguous ranges across at most
// MaxParallelism workers (parallelRanges), each reducing its own buckets.
func (c *Curve) montBucketSum(m *ff.Mont, odd [][]montAffine, digits [][]int8, maxLen int) montJac {
	sc := bucketPool.Get().(*bucketScratch)
	defer bucketPool.Put(sc)
	size := grow(sc.size, maxLen)
	start := grow(sc.start, maxLen)
	sc.size, sc.start = size, start
	clear(size)
	for _, dg := range digits {
		for b, d := range dg {
			if d != 0 {
				size[b]++
			}
		}
	}
	total := int32(0)
	for b := range start {
		start[b] = total
		total += size[b]
	}
	pts := grow(sc.pts, int(total))
	sc.pts = pts
	clear(size) // refilled below, as each bucket's fill count
	for i, dg := range digits {
		for b, d := range dg {
			if d == 0 {
				continue
			}
			dst := &pts[start[b]+size[b]]
			size[b]++
			if d > 0 {
				*dst = odd[i][(d-1)/2]
				continue
			}
			e := &odd[i][(-d-1)/2]
			dst.x, dst.inf = e.x, e.inf
			m.Neg(&dst.y, &e.y)
		}
	}
	span := 16 // bit positions per worker
	if len(digits) < 32 {
		span = max(maxLen, 1) // too few scalars to pay for a goroutine: one range
	}
	parallelRanges(maxLen, span, func(lo, hi int) {
		ws := bucketPool.Get().(*bucketScratch)
		defer bucketPool.Put(ws)
		c.reduceBuckets(m, pts, start[lo:hi], size[lo:hi], ws)
	})
	var acc montJac
	acc.setInfinity(m)
	for b := maxLen - 1; b >= 0; b-- {
		c.montDouble(m, &acc)
		if size[b] == 1 {
			c.montAddAffine(m, &acc, &pts[start[b]])
		}
	}
	return acc
}

// reduceBuckets sums every bucket — size[b] points at pts[start[b]:] — down
// to one point in place, leaving size[b] at 1, or 0 for an empty bucket.
// Each level adds every bucket's elements pairwise, element k to element
// k + ⌈n/2⌉, so a bucket halves where it lies and no pair writes over
// another's operand; all buckets' pairs of a level form one montBatchAdd,
// one inversion. sc supplies the pair list and the batch's scratch.
func (c *Curve) reduceBuckets(m *ff.Mont, pts []montAffine, start, size []int32, sc *bucketScratch) {
	for {
		pairs := sc.pairs[:0]
		for b, n := range size {
			h := (n + 1) / 2
			for k := int32(0); k < n/2; k++ {
				at := start[b] + k
				pairs = append(pairs, addPair{dst: at, a: at, b: at + h})
			}
			size[b] = h
		}
		sc.pairs = pairs
		if len(pairs) == 0 {
			return
		}
		sc.pre = grow(sc.pre, len(pairs))
		c.montBatchAdd(m, pts, pairs, sc.pre)
	}
}

// grow returns s resliced to n elements, reallocated when its capacity is
// short; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
