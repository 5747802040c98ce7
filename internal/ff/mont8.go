package ff

import "math/bits"

// This file holds the paper-width kernels in Go: Mul, Sqr, Add and Sub for
// k == MaxLimbs, the 512-bit q of type-a-512 that bench/ and the paper's
// figures run. Add and Sub run here everywhere. Mul and Sqr run here on 386,
// arm64 and amd64 CPUs without BMI2 and ADX; on amd64 CPUs with them (every
// SGX-capable one) mul8ADX and sqr8ADX in mont8_amd64.s run instead, and
// mul8 and sqr8 are their limb-for-limb reference in the tests. Each returns
// exactly the limbs the generic k-limb loop in mont.go returns, with the
// same branchless masked final step and the same aliasing rules, but every
// limb index is a compile-time constant: no loop counters, no bounds checks,
// no accumulator array in memory. q512 has no spare top bit, so unlike the
// "no-carry" CIOS variant the carry word above the k-limb accumulator is
// kept.

// mul8 is Mul for k == 8: CIOS with each row unrolled into locals. A row's
// eight 128-bit products are added as two carry chains — the low halves at
// word j, the high halves at word j+1 — so no product waits on another's
// carry. t0…t9 is the accumulator; it stays below 2q between rows.
func (m *Mont) mul8(dst, a, b *Fel) {
	a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
	q0, q1, q2, q3, q4, q5, q6, q7 := m.n[0], m.n[1], m.n[2], m.n[3], m.n[4], m.n[5], m.n[6], m.n[7]
	var t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, c uint64
	for i := 0; i < MaxLimbs; i++ {
		// t += a · b[i]
		bi := b[i]
		h0, l0 := bits.Mul64(a0, bi)
		h1, l1 := bits.Mul64(a1, bi)
		h2, l2 := bits.Mul64(a2, bi)
		h3, l3 := bits.Mul64(a3, bi)
		h4, l4 := bits.Mul64(a4, bi)
		h5, l5 := bits.Mul64(a5, bi)
		h6, l6 := bits.Mul64(a6, bi)
		h7, l7 := bits.Mul64(a7, bi)
		t0, c = bits.Add64(t0, l0, 0)
		t1, c = bits.Add64(t1, l1, c)
		t2, c = bits.Add64(t2, l2, c)
		t3, c = bits.Add64(t3, l3, c)
		t4, c = bits.Add64(t4, l4, c)
		t5, c = bits.Add64(t5, l5, c)
		t6, c = bits.Add64(t6, l6, c)
		t7, c = bits.Add64(t7, l7, c)
		t8, t9 = bits.Add64(t8, 0, c)
		t1, c = bits.Add64(t1, h0, 0)
		t2, c = bits.Add64(t2, h1, c)
		t3, c = bits.Add64(t3, h2, c)
		t4, c = bits.Add64(t4, h3, c)
		t5, c = bits.Add64(t5, h4, c)
		t6, c = bits.Add64(t6, h5, c)
		t7, c = bits.Add64(t7, h6, c)
		t8, c = bits.Add64(t8, h7, c)
		t9 += c

		// t = (t + u·q) / 2⁶⁴ with u chosen so the low word cancels.
		u := t0 * m.n0
		h0, l0 = bits.Mul64(u, q0)
		h1, l1 = bits.Mul64(u, q1)
		h2, l2 = bits.Mul64(u, q2)
		h3, l3 = bits.Mul64(u, q3)
		h4, l4 = bits.Mul64(u, q4)
		h5, l5 = bits.Mul64(u, q5)
		h6, l6 = bits.Mul64(u, q6)
		h7, l7 = bits.Mul64(u, q7)
		_, c = bits.Add64(t0, l0, 0)
		t1, c = bits.Add64(t1, l1, c)
		t2, c = bits.Add64(t2, l2, c)
		t3, c = bits.Add64(t3, l3, c)
		t4, c = bits.Add64(t4, l4, c)
		t5, c = bits.Add64(t5, l5, c)
		t6, c = bits.Add64(t6, l6, c)
		t7, c = bits.Add64(t7, l7, c)
		t8, c = bits.Add64(t8, 0, c)
		t9 += c
		t0, c = bits.Add64(t1, h0, 0)
		t1, c = bits.Add64(t2, h1, c)
		t2, c = bits.Add64(t3, h2, c)
		t3, c = bits.Add64(t4, h3, c)
		t4, c = bits.Add64(t5, h4, c)
		t5, c = bits.Add64(t6, h5, c)
		t6, c = bits.Add64(t7, h6, c)
		t7, c = bits.Add64(t8, h7, c)
		t8 = t9 + c
	}
	m.reduce8(dst, t0, t1, t2, t3, t4, t5, t6, t7, t8)
}

// sqr8 is Sqr for k == 8: separated operand scanning. The 28 cross products
// aᵢ·aⱼ (i < j) are formed once into w1…w14 and doubled, the eight squares
// aᵢ² are added on the diagonal, and the 16-word square is then Montgomery-
// reduced one word per row.
func (m *Mont) sqr8(dst, a *Fel) {
	a0, a1, a2, a3, a4, a5, a6, a7 := a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7]
	var c, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11, w12, w13, w14, w15 uint64

	// Cross products, one row per aᵢ: the low halves of aᵢ·aⱼ (j > i) add in
	// at words i+j, the high halves at i+j+1, as two carry chains like
	// mul8's. Row i's top word w(i+8) starts empty, and the rows summed so
	// far stay below 2^(64(i+9)), so no carry leaves it.
	h1, w1 := bits.Mul64(a0, a1)
	h2, l2 := bits.Mul64(a0, a2)
	h3, l3 := bits.Mul64(a0, a3)
	h4, l4 := bits.Mul64(a0, a4)
	h5, l5 := bits.Mul64(a0, a5)
	h6, l6 := bits.Mul64(a0, a6)
	h7, l7 := bits.Mul64(a0, a7)
	w2, c = bits.Add64(l2, h1, 0)
	w3, c = bits.Add64(l3, h2, c)
	w4, c = bits.Add64(l4, h3, c)
	w5, c = bits.Add64(l5, h4, c)
	w6, c = bits.Add64(l6, h5, c)
	w7, c = bits.Add64(l7, h6, c)
	w8 = h7 + c

	h2, l2 = bits.Mul64(a1, a2)
	h3, l3 = bits.Mul64(a1, a3)
	h4, l4 = bits.Mul64(a1, a4)
	h5, l5 = bits.Mul64(a1, a5)
	h6, l6 = bits.Mul64(a1, a6)
	h7, l7 = bits.Mul64(a1, a7)
	w3, c = bits.Add64(w3, l2, 0)
	w4, c = bits.Add64(w4, l3, c)
	w5, c = bits.Add64(w5, l4, c)
	w6, c = bits.Add64(w6, l5, c)
	w7, c = bits.Add64(w7, l6, c)
	w8, c = bits.Add64(w8, l7, c)
	w9 = c
	w4, c = bits.Add64(w4, h2, 0)
	w5, c = bits.Add64(w5, h3, c)
	w6, c = bits.Add64(w6, h4, c)
	w7, c = bits.Add64(w7, h5, c)
	w8, c = bits.Add64(w8, h6, c)
	w9 += h7 + c

	h3, l3 = bits.Mul64(a2, a3)
	h4, l4 = bits.Mul64(a2, a4)
	h5, l5 = bits.Mul64(a2, a5)
	h6, l6 = bits.Mul64(a2, a6)
	h7, l7 = bits.Mul64(a2, a7)
	w5, c = bits.Add64(w5, l3, 0)
	w6, c = bits.Add64(w6, l4, c)
	w7, c = bits.Add64(w7, l5, c)
	w8, c = bits.Add64(w8, l6, c)
	w9, c = bits.Add64(w9, l7, c)
	w10 = c
	w6, c = bits.Add64(w6, h3, 0)
	w7, c = bits.Add64(w7, h4, c)
	w8, c = bits.Add64(w8, h5, c)
	w9, c = bits.Add64(w9, h6, c)
	w10 += h7 + c

	h4, l4 = bits.Mul64(a3, a4)
	h5, l5 = bits.Mul64(a3, a5)
	h6, l6 = bits.Mul64(a3, a6)
	h7, l7 = bits.Mul64(a3, a7)
	w7, c = bits.Add64(w7, l4, 0)
	w8, c = bits.Add64(w8, l5, c)
	w9, c = bits.Add64(w9, l6, c)
	w10, c = bits.Add64(w10, l7, c)
	w11 = c
	w8, c = bits.Add64(w8, h4, 0)
	w9, c = bits.Add64(w9, h5, c)
	w10, c = bits.Add64(w10, h6, c)
	w11 += h7 + c

	h5, l5 = bits.Mul64(a4, a5)
	h6, l6 = bits.Mul64(a4, a6)
	h7, l7 = bits.Mul64(a4, a7)
	w9, c = bits.Add64(w9, l5, 0)
	w10, c = bits.Add64(w10, l6, c)
	w11, c = bits.Add64(w11, l7, c)
	w12 = c
	w10, c = bits.Add64(w10, h5, 0)
	w11, c = bits.Add64(w11, h6, c)
	w12 += h7 + c

	h6, l6 = bits.Mul64(a5, a6)
	h7, l7 = bits.Mul64(a5, a7)
	w11, c = bits.Add64(w11, l6, 0)
	w12, c = bits.Add64(w12, l7, c)
	w13 = c
	w12, c = bits.Add64(w12, h6, 0)
	w13 += h7 + c

	h7, l7 = bits.Mul64(a6, a7)
	w13, c = bits.Add64(w13, l7, 0)
	w14 = h7 + c

	// Double the cross products.
	w15 = w14 >> 63
	w14 = w14<<1 | w13>>63
	w13 = w13<<1 | w12>>63
	w12 = w12<<1 | w11>>63
	w11 = w11<<1 | w10>>63
	w10 = w10<<1 | w9>>63
	w9 = w9<<1 | w8>>63
	w8 = w8<<1 | w7>>63
	w7 = w7<<1 | w6>>63
	w6 = w6<<1 | w5>>63
	w5 = w5<<1 | w4>>63
	w4 = w4<<1 | w3>>63
	w3 = w3<<1 | w2>>63
	w2 = w2<<1 | w1>>63
	w1 <<= 1

	// Add the squares aᵢ² at words 2i and 2i+1; a² < 2¹⁰²⁴, so nothing
	// carries out of w15.
	h0, w0 := bits.Mul64(a0, a0)
	h1, l1 := bits.Mul64(a1, a1)
	h2, l2 = bits.Mul64(a2, a2)
	h3, l3 = bits.Mul64(a3, a3)
	h4, l4 = bits.Mul64(a4, a4)
	h5, l5 = bits.Mul64(a5, a5)
	h6, l6 = bits.Mul64(a6, a6)
	h7, l7 = bits.Mul64(a7, a7)
	w1, c = bits.Add64(w1, h0, 0)
	w2, c = bits.Add64(w2, l1, c)
	w3, c = bits.Add64(w3, h1, c)
	w4, c = bits.Add64(w4, l2, c)
	w5, c = bits.Add64(w5, h2, c)
	w6, c = bits.Add64(w6, l3, c)
	w7, c = bits.Add64(w7, h3, c)
	w8, c = bits.Add64(w8, l4, c)
	w9, c = bits.Add64(w9, h4, c)
	w10, c = bits.Add64(w10, l5, c)
	w11, c = bits.Add64(w11, h5, c)
	w12, c = bits.Add64(w12, l6, c)
	w13, c = bits.Add64(w13, h6, c)
	w14, c = bits.Add64(w14, l7, c)
	w15 += h7 + c

	// Montgomery reduction, one row per word: cancel the low word of the
	// window t0…t7 and slide it up, feeding in the next high word of the
	// square (plus top, the carry the previous row left for it).
	high := [MaxLimbs]uint64{w8, w9, w10, w11, w12, w13, w14, w15}
	t0, t1, t2, t3, t4, t5, t6, t7 := w0, w1, w2, w3, w4, w5, w6, w7
	q0, q1, q2, q3, q4, q5, q6, q7 := m.n[0], m.n[1], m.n[2], m.n[3], m.n[4], m.n[5], m.n[6], m.n[7]
	var top uint64
	for i := 0; i < MaxLimbs; i++ {
		u := t0 * m.n0
		h0, l0 := bits.Mul64(u, q0)
		h1, l1 := bits.Mul64(u, q1)
		h2, l2 := bits.Mul64(u, q2)
		h3, l3 := bits.Mul64(u, q3)
		h4, l4 := bits.Mul64(u, q4)
		h5, l5 := bits.Mul64(u, q5)
		h6, l6 := bits.Mul64(u, q6)
		h7, l7 := bits.Mul64(u, q7)
		_, c = bits.Add64(t0, l0, 0)
		t1, c = bits.Add64(t1, l1, c)
		t2, c = bits.Add64(t2, l2, c)
		t3, c = bits.Add64(t3, l3, c)
		t4, c = bits.Add64(t4, l4, c)
		t5, c = bits.Add64(t5, l5, c)
		t6, c = bits.Add64(t6, l6, c)
		t7, c = bits.Add64(t7, l7, c)
		hw, cc := bits.Add64(high[i], top, c)
		t0, c = bits.Add64(t1, h0, 0)
		t1, c = bits.Add64(t2, h1, c)
		t2, c = bits.Add64(t3, h2, c)
		t3, c = bits.Add64(t4, h3, c)
		t4, c = bits.Add64(t5, h4, c)
		t5, c = bits.Add64(t6, h5, c)
		t6, c = bits.Add64(t7, h6, c)
		t7, c = bits.Add64(hw, h7, c)
		top = cc + c
	}
	m.reduce8(dst, t0, t1, t2, t3, t4, t5, t6, t7, top)
}

// reduce8 writes t mod q to dst for t = t0…t7 + t8·2⁵¹² < 2q: one masked
// subtraction, kept only when it did not borrow or t had a top word.
func (m *Mont) reduce8(dst *Fel, t0, t1, t2, t3, t4, t5, t6, t7, t8 uint64) {
	q := &m.n
	r0, b := bits.Sub64(t0, q[0], 0)
	r1, b := bits.Sub64(t1, q[1], b)
	r2, b := bits.Sub64(t2, q[2], b)
	r3, b := bits.Sub64(t3, q[3], b)
	r4, b := bits.Sub64(t4, q[4], b)
	r5, b := bits.Sub64(t5, q[5], b)
	r6, b := bits.Sub64(t6, q[6], b)
	r7, b := bits.Sub64(t7, q[7], b)
	keep := -(b &^ t8)
	dst[0] = t0&keep | r0&^keep
	dst[1] = t1&keep | r1&^keep
	dst[2] = t2&keep | r2&^keep
	dst[3] = t3&keep | r3&^keep
	dst[4] = t4&keep | r4&^keep
	dst[5] = t5&keep | r5&^keep
	dst[6] = t6&keep | r6&^keep
	dst[7] = t7&keep | r7&^keep
}

// add8 is Add for k == 8. The carry out of the raw sum plays t8's role in
// reduce8: q512 fills all 512 bits, so a + b can exceed 2⁵¹².
func (m *Mont) add8(dst, a, b *Fel) {
	s0, c := bits.Add64(a[0], b[0], 0)
	s1, c := bits.Add64(a[1], b[1], c)
	s2, c := bits.Add64(a[2], b[2], c)
	s3, c := bits.Add64(a[3], b[3], c)
	s4, c := bits.Add64(a[4], b[4], c)
	s5, c := bits.Add64(a[5], b[5], c)
	s6, c := bits.Add64(a[6], b[6], c)
	s7, c := bits.Add64(a[7], b[7], c)
	m.reduce8(dst, s0, s1, s2, s3, s4, s5, s6, s7, c)
}

// sub8 is Sub for k == 8: the raw difference plus q masked by the borrow.
func (m *Mont) sub8(dst, a, b *Fel) {
	q := &m.n
	d0, bw := bits.Sub64(a[0], b[0], 0)
	d1, bw := bits.Sub64(a[1], b[1], bw)
	d2, bw := bits.Sub64(a[2], b[2], bw)
	d3, bw := bits.Sub64(a[3], b[3], bw)
	d4, bw := bits.Sub64(a[4], b[4], bw)
	d5, bw := bits.Sub64(a[5], b[5], bw)
	d6, bw := bits.Sub64(a[6], b[6], bw)
	d7, bw := bits.Sub64(a[7], b[7], bw)
	mask := -bw
	var c uint64
	dst[0], c = bits.Add64(d0, q[0]&mask, 0)
	dst[1], c = bits.Add64(d1, q[1]&mask, c)
	dst[2], c = bits.Add64(d2, q[2]&mask, c)
	dst[3], c = bits.Add64(d3, q[3]&mask, c)
	dst[4], c = bits.Add64(d4, q[4]&mask, c)
	dst[5], c = bits.Add64(d5, q[5]&mask, c)
	dst[6], c = bits.Add64(d6, q[6]&mask, c)
	dst[7], _ = bits.Add64(d7, q[7]&mask, c)
}
