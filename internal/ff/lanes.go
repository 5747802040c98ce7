package ff

// This file is the 8-lane form of the 8-limb field: eight elements side by
// side in radix 2^52, for AVX-512 IFMA (VPMADD52LUQ/HUQ forms the low or
// high 52 bits of eight 52×52-bit products in one instruction). The products
// are Gueron and Krasnov's radix-2^52 Montgomery multiplication ("Accelerating
// Big Integer Arithmetic Using Intel IFMA Extensions", ARITH 2016), one
// element per 64-bit lane. A lane holds the same residue as the Fel it came
// from — the Montgomery form x·2^512 — so Set and Get only regroup bits, and
// LaneMul, LaneAdd and LaneSub return, lane by lane, exactly the limbs Mul,
// Add and Sub return.

// laneDigits is the digit count of the lane form: ten 52-bit digits hold
// 520 bits, eight more than the widest 8-limb modulus.
const laneDigits = 10

// mask52 keeps the low 52 bits of a word, one radix-2^52 digit.
const mask52 = 1<<52 - 1

// Lanes holds eight elements of an 8-limb field, lane-major: Lanes[i][j] is
// the 52-bit digit i of lane j, so digit i of all eight lanes is one 512-bit
// vector. A lane the kernels read must be canonical (below the modulus), as
// every Set of a Mont result and every kernel output is.
type Lanes [laneDigits][8]uint64

// Set writes the canonical limb value a into lane j as ten 52-bit digits.
func (l *Lanes) Set(j int, a *Fel) {
	l[0][j] = a[0] & mask52
	l[1][j] = (a[0]>>52 | a[1]<<12) & mask52
	l[2][j] = (a[1]>>40 | a[2]<<24) & mask52
	l[3][j] = (a[2]>>28 | a[3]<<36) & mask52
	l[4][j] = (a[3]>>16 | a[4]<<48) & mask52
	l[5][j] = a[4] >> 4 & mask52
	l[6][j] = (a[4]>>56 | a[5]<<8) & mask52
	l[7][j] = (a[5]>>44 | a[6]<<20) & mask52
	l[8][j] = (a[6]>>32 | a[7]<<32) & mask52
	l[9][j] = a[7] >> 20
}

// Get sets dst to the value of lane j, the inverse of Set.
func (l *Lanes) Get(dst *Fel, j int) {
	dst[0] = l[0][j] | l[1][j]<<52
	dst[1] = l[1][j]>>12 | l[2][j]<<40
	dst[2] = l[2][j]>>24 | l[3][j]<<28
	dst[3] = l[3][j]>>36 | l[4][j]<<16
	dst[4] = l[4][j]>>48 | l[5][j]<<4 | l[6][j]<<56
	dst[5] = l[6][j]>>8 | l[7][j]<<44
	dst[6] = l[7][j]>>20 | l[8][j]<<32
	dst[7] = l[8][j]>>32 | l[9][j]<<20
}

// Gather sets lane j to the canonical limb value *src[j] for every j: eight
// Sets, in one vector pass (laneGatherIFMA). It needs HasIFMA.
func (l *Lanes) Gather(src *[8]*Fel) { laneGatherIFMA(l, src) }

// Scatter sets *dst[j] to the value of lane j for every j: eight Gets, in one
// vector pass (laneScatterIFMA). The dst[j] must be distinct. It needs
// HasIFMA.
func (l *Lanes) Scatter(dst *[8]*Fel) { laneScatterIFMA(l, dst) }

// LaneMul sets dst = a·b·R⁻¹ mod q in every lane, R = 2^512: the Montgomery
// product Mul returns. The kernel (laneMulIFMA) runs Montgomery's word-by-word
// reduction over ten 52-bit digits, which divides by 2^520, so it multiplies
// by a·2^8 instead of a; every lane's product stays below 2q and one masked
// subtraction makes it canonical. dst may alias a or b. It needs an 8-limb
// modulus and HasIFMA.
func (m *Mont) LaneMul(dst, a, b *Lanes) { laneMulIFMA(dst, a, b, &m.q52, m.n0&mask52) }

// LaneAdd sets dst = a + b mod q in every lane, Add's result. It needs an
// 8-limb modulus and HasIFMA.
func (m *Mont) LaneAdd(dst, a, b *Lanes) { laneAddIFMA(dst, a, b, &m.q52) }

// LaneSub sets dst = a − b mod q in every lane, Sub's result. It needs an
// 8-limb modulus and HasIFMA.
func (m *Mont) LaneSub(dst, a, b *Lanes) { laneSubIFMA(dst, a, b, &m.q52) }
