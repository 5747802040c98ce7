package curve

import "github.com/ibbesgx/ibbesgx/internal/ff"

// useLanes is whether montBatchAdd runs its regular pairs on IFMA lanes:
// ff.HasIFMA, read once. The tests clear it to run the scalar path on the
// same batches.
var useLanes = ff.HasIFMA

// laneScratch is laneBatchAdd's working memory, part of a pooled
// bucketScratch: the batch split into regular pairs and the rest, and per
// group of eight regular pairs the gathered x₁ and x₂ and the running
// product before the group.
type laneScratch struct {
	regular, rest []addPair
	x1, x2, pre   []ff.Lanes
}

// laneBatchAdd is montBatchAdd's algorithm on eight lanes (ff.LaneMul,
// LaneSub, LaneAdd) for the pairs of the batch with both operands finite and
// x₁ ≠ x₂, and returns the other pairs for montBatchAdd's scalar loop — or
// every pair, when fewer than eight are regular. Pair 8g + j of the regular
// pairs runs in lane j of group g, and each lane keeps its own running
// product of slope denominators; one Mont.Inv inverts the product of the
// eight lane products, and the scalar simultaneous-inversion step spreads the
// inverse back to the lanes. The last group's empty lanes add nothing (their
// denominator is 1) and are not written back. A lane holds the same
// Montgomery form as a Fel, so entering and leaving the lanes only regroups
// bits, and every result is the limbs the scalar loop writes.
func (c *Curve) laneBatchAdd(m *ff.Mont, pts []montAffine, pairs []addPair, sc *bucketScratch) []addPair {
	ls := &sc.lanes
	reg, rest := ls.regular[:0], ls.rest[:0]
	for _, pr := range pairs {
		if p, q := &pts[pr.a], &pts[pr.b]; p.inf || q.inf || m.Equal(&p.x, &q.x) {
			rest = append(rest, pr)
		} else {
			reg = append(reg, pr)
		}
	}
	ls.regular, ls.rest = reg, rest
	if len(reg) < 8 {
		return pairs
	}
	groups := (len(reg) + 7) / 8
	ls.x1, ls.x2, ls.pre = grow(ls.x1, groups), grow(ls.x2, groups), grow(ls.pre, groups)
	var one, zero, sink [8]ff.Fel // an empty lane's x₁ = 0, x₂ = 1, and where its results go
	m.SetOne(&one[0])
	var acc, d ff.Lanes
	for j := range 8 {
		acc.Set(j, &one[0])
	}
	var a, b [8]*ff.Fel
	for g := range groups {
		for j := range 8 {
			if k := 8*g + j; k < len(reg) {
				a[j], b[j] = &pts[reg[k].a].x, &pts[reg[k].b].x
			} else {
				a[j], b[j] = &zero[j], &one[0]
			}
		}
		x1, x2 := &ls.x1[g], &ls.x2[g]
		x1.Gather(&a)
		x2.Gather(&b)
		ls.pre[g] = acc
		m.LaneSub(&d, x2, x1)
		m.LaneMul(&acc, &acc, &d)
	}

	// Invert the eight lane products with one Mont.Inv.
	var prod, prefix [8]ff.Fel
	run := one[0]
	for j := range prod {
		acc.Get(&prod[j], j)
		prefix[j] = run
		m.Mul(&run, &run, &prod[j])
	}
	var inv ff.Fel
	if !m.Inv(&inv, &run) {
		// See the montNormalize panic rationale.
		panic("curve: laneBatchAdd: product of non-zero slope denominators is not invertible")
	}
	var invs ff.Lanes // lane j: the inverse of lane j's running product
	for j := len(prod) - 1; j >= 0; j-- {
		var v ff.Fel
		m.Mul(&v, &inv, &prefix[j])
		m.Mul(&inv, &inv, &prod[j])
		invs.Set(j, &v)
	}

	var dInv, y1, y2, lam, x3, t ff.Lanes
	var ox, oy [8]*ff.Fel
	for j := range 8 {
		a[j], b[j], ox[j], oy[j] = &zero[j], &zero[j], &sink[j], &sink[j]
	}
	for g := groups - 1; g >= 0; g-- {
		for j := range min(8, len(reg)-8*g) {
			pr := reg[8*g+j]
			a[j], b[j] = &pts[pr.a].y, &pts[pr.b].y
			out := &pts[pr.dst]
			ox[j], oy[j] = &out.x, &out.y
			out.inf = false
		}
		y1.Gather(&a)
		y2.Gather(&b)
		x1, x2 := &ls.x1[g], &ls.x2[g]
		m.LaneSub(&d, x2, x1)
		m.LaneMul(&dInv, &invs, &ls.pre[g])
		m.LaneMul(&invs, &invs, &d)
		m.LaneSub(&lam, &y2, &y1)
		m.LaneMul(&lam, &lam, &dInv)
		m.LaneMul(&x3, &lam, &lam)
		m.LaneAdd(&t, x1, x2)
		m.LaneSub(&x3, &x3, &t) // x₃ = λ² − (x₁ + x₂)
		m.LaneSub(&t, x1, &x3)
		m.LaneMul(&t, &lam, &t)
		m.LaneSub(&t, &t, &y1) // y₃ = λ(x₁ − x₃) − y₁
		x3.Scatter(&ox)
		t.Scatter(&oy)
	}
	return rest
}
