#include "textflag.h"

// The lane kernels on CPUs with AVX-512 F and IFMA: eight elements of the
// 8-limb field at once, one per 64-bit lane, each as ten 52-bit digits
// (Lanes, lanes.go). Digit i of all eight lanes is one ZMM register or one
// 64-byte row of a Lanes. Every routine is straight-line: the lanes that need
// a correction are picked by an opmask, not a branch.
//
// laneMulIFMA is Montgomery's word-by-word product in radix 2^52 (Gueron and
// Krasnov, ARITH 2016). VPMADD52LUQ and VPMADD52HUQ add the low and the high
// 52 bits of the product of two 52-bit digits into a 64-bit accumulator, so a
// digit of t can take a few thousand of them before it overflows and carries
// wait until the end. Row i adds a'·b[i] and u·q, u = t0·n0 mod 2^52, which
// leaves t0 a multiple of 2^52; t0's carry moves into t1 and the window moves
// one digit on by renaming, as in mul8ADX. Ten rows divide by 2^520, so a'
// is a·2^8 (a < q < 2^512, so a' < 2^520 fits ten digits) and the product is
// a·b·2^−512 mod q, plus at most one q: t < a'·b/2^520 + q < 2q.
//
// Registers: SI = a, BX = b, DI = q's digits (broadcast from memory), DX =
// dst; Z0–Z9 = a' (then the result), Z10–Z20 = the accumulator t0…t10, Z21 =
// b[i], Z22 = u, Z23 = a carry, Z30 = the 52-bit mask, Z31 = n0.

// MASK52 sets Z30 to 2^52 − 1 in every lane.
#define MASK52 \
	MOVQ         $0xfffffffffffff, AX \
	VPBROADCASTQ AX, Z30

// ROW adds a'·b[off/64] + u·q into t0…t10 and carries t0 into t1; t0 is left
// zero, ready to be the next row's t10.
#define ROW(off, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10) \
	VMOVDQU64        off(BX), Z21      \
	VPMADD52LUQ      Z21, Z0, t0       \
	VPXORQ           Z22, Z22, Z22     \
	VPMADD52LUQ      Z31, t0, Z22      \
	VPMADD52HUQ      Z21, Z0, t1       \
	VPMADD52LUQ      Z21, Z1, t1       \
	VPMADD52HUQ      Z21, Z1, t2       \
	VPMADD52LUQ      Z21, Z2, t2       \
	VPMADD52HUQ      Z21, Z2, t3       \
	VPMADD52LUQ      Z21, Z3, t3       \
	VPMADD52HUQ      Z21, Z3, t4       \
	VPMADD52LUQ      Z21, Z4, t4       \
	VPMADD52HUQ      Z21, Z4, t5       \
	VPMADD52LUQ      Z21, Z5, t5       \
	VPMADD52HUQ      Z21, Z5, t6       \
	VPMADD52LUQ      Z21, Z6, t6       \
	VPMADD52HUQ      Z21, Z6, t7       \
	VPMADD52LUQ      Z21, Z7, t7       \
	VPMADD52HUQ      Z21, Z7, t8       \
	VPMADD52LUQ      Z21, Z8, t8       \
	VPMADD52HUQ      Z21, Z8, t9       \
	VPMADD52LUQ      Z21, Z9, t9       \
	VPMADD52HUQ      Z21, Z9, t10      \
	VPMADD52LUQ.BCST 0(DI), Z22, t0    \
	VPMADD52HUQ.BCST 0(DI), Z22, t1    \
	VPMADD52LUQ.BCST 8(DI), Z22, t1    \
	VPMADD52HUQ.BCST 8(DI), Z22, t2    \
	VPMADD52LUQ.BCST 16(DI), Z22, t2   \
	VPMADD52HUQ.BCST 16(DI), Z22, t3   \
	VPMADD52LUQ.BCST 24(DI), Z22, t3   \
	VPMADD52HUQ.BCST 24(DI), Z22, t4   \
	VPMADD52LUQ.BCST 32(DI), Z22, t4   \
	VPMADD52HUQ.BCST 32(DI), Z22, t5   \
	VPMADD52LUQ.BCST 40(DI), Z22, t5   \
	VPMADD52HUQ.BCST 40(DI), Z22, t6   \
	VPMADD52LUQ.BCST 48(DI), Z22, t6   \
	VPMADD52HUQ.BCST 48(DI), Z22, t7   \
	VPMADD52LUQ.BCST 56(DI), Z22, t7   \
	VPMADD52HUQ.BCST 56(DI), Z22, t8   \
	VPMADD52LUQ.BCST 64(DI), Z22, t8   \
	VPMADD52HUQ.BCST 64(DI), Z22, t9   \
	VPMADD52LUQ.BCST 72(DI), Z22, t9   \
	VPMADD52HUQ.BCST 72(DI), Z22, t10  \
	VPSRLQ           $52, t0, t0       \
	VPADDQ           t0, t1, t1        \
	VPXORQ           t0, t0, t0

// SCARRY moves the signed carry of digit d into digit e and masks d to 52
// bits: Z0–Z9 may hold negative differences and digits past 52 bits.
#define SCARRY(d, e) \
	VPSRAQ $52, d, Z23 \
	VPANDQ Z30, d, d   \
	VPADDQ Z23, e, e

// UCARRY is SCARRY for non-negative digits.
#define UCARRY(d, e) \
	VPSRLQ $52, d, Z23 \
	VPANDQ Z30, d, d   \
	VPADDQ Z23, e, e

// FIXUP stores to dst the value v mod q of the digits Z0–Z9, given
// −q ≤ v < q: it normalises them with signed carries, so Z9 holds v's sign;
// adds q back in the lanes where v is negative (opmask K1); normalises
// again; and stores the ten digits to DX.
#define FIXUP \
	SCARRY(Z0, Z1)                  \
	SCARRY(Z1, Z2)                  \
	SCARRY(Z2, Z3)                  \
	SCARRY(Z3, Z4)                  \
	SCARRY(Z4, Z5)                  \
	SCARRY(Z5, Z6)                  \
	SCARRY(Z6, Z7)                  \
	SCARRY(Z7, Z8)                  \
	SCARRY(Z8, Z9)                  \
	VPSRAQ      $63, Z9, Z23        \
	VPTESTMQ    Z23, Z23, K1        \
	VPADDQ.BCST 0(DI), Z0, K1, Z0   \
	VPADDQ.BCST 8(DI), Z1, K1, Z1   \
	VPADDQ.BCST 16(DI), Z2, K1, Z2  \
	VPADDQ.BCST 24(DI), Z3, K1, Z3  \
	VPADDQ.BCST 32(DI), Z4, K1, Z4  \
	VPADDQ.BCST 40(DI), Z5, K1, Z5  \
	VPADDQ.BCST 48(DI), Z6, K1, Z6  \
	VPADDQ.BCST 56(DI), Z7, K1, Z7  \
	VPADDQ.BCST 64(DI), Z8, K1, Z8  \
	VPADDQ.BCST 72(DI), Z9, K1, Z9  \
	UCARRY(Z0, Z1)                  \
	UCARRY(Z1, Z2)                  \
	UCARRY(Z2, Z3)                  \
	UCARRY(Z3, Z4)                  \
	UCARRY(Z4, Z5)                  \
	UCARRY(Z5, Z6)                  \
	UCARRY(Z6, Z7)                  \
	UCARRY(Z7, Z8)                  \
	UCARRY(Z8, Z9)                  \
	VMOVDQU64   Z0, 0(DX)           \
	VMOVDQU64   Z1, 64(DX)          \
	VMOVDQU64   Z2, 128(DX)         \
	VMOVDQU64   Z3, 192(DX)         \
	VMOVDQU64   Z4, 256(DX)         \
	VMOVDQU64   Z5, 320(DX)         \
	VMOVDQU64   Z6, 384(DX)         \
	VMOVDQU64   Z7, 448(DX)         \
	VMOVDQU64   Z8, 512(DX)         \
	VMOVDQU64   Z9, 576(DX)         \
	VZEROUPPER

// SHIFT8 sets digit d of a' = a·2^8 from digits d and c = d − 1 of a. Bits
// past 52 are left in d: VPMADD52 reads only the low 52 bits of a source.
#define SHIFT8(c, d) \
	VPSRLQ $44, c, Z23 \
	VPSLLQ $8, d, d    \
	VPORQ  Z23, d, d

// func laneMulIFMA(dst, a, b *Lanes, q52 *[laneDigits]uint64, n0 uint64)
TEXT ·laneMulIFMA(SB), NOSPLIT, $0-40
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ q52+24(FP), DI
	VPBROADCASTQ n0+32(FP), Z31
	MASK52

	VMOVDQU64 0(SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VMOVDQU64 256(SI), Z4
	VMOVDQU64 320(SI), Z5
	VMOVDQU64 384(SI), Z6
	VMOVDQU64 448(SI), Z7
	VMOVDQU64 512(SI), Z8
	VMOVDQU64 576(SI), Z9
	SHIFT8(Z8, Z9)
	SHIFT8(Z7, Z8)
	SHIFT8(Z6, Z7)
	SHIFT8(Z5, Z6)
	SHIFT8(Z4, Z5)
	SHIFT8(Z3, Z4)
	SHIFT8(Z2, Z3)
	SHIFT8(Z1, Z2)
	SHIFT8(Z0, Z1)
	VPSLLQ $8, Z0, Z0

	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20

	ROW(0, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20)
	ROW(64, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z10)
	ROW(128, Z12, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z10, Z11)
	ROW(192, Z13, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z10, Z11, Z12)
	ROW(256, Z14, Z15, Z16, Z17, Z18, Z19, Z20, Z10, Z11, Z12, Z13)
	ROW(320, Z15, Z16, Z17, Z18, Z19, Z20, Z10, Z11, Z12, Z13, Z14)
	ROW(384, Z16, Z17, Z18, Z19, Z20, Z10, Z11, Z12, Z13, Z14, Z15)
	ROW(448, Z17, Z18, Z19, Z20, Z10, Z11, Z12, Z13, Z14, Z15, Z16)
	ROW(512, Z18, Z19, Z20, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17)
	ROW(576, Z19, Z20, Z10, Z11, Z12, Z13, Z14, Z15, Z16, Z17, Z18)

	// t = Z20, Z10…Z18 < 2q with digits past 52 bits: v = t − q.
	VPSUBQ.BCST 0(DI), Z20, Z0
	VPSUBQ.BCST 8(DI), Z10, Z1
	VPSUBQ.BCST 16(DI), Z11, Z2
	VPSUBQ.BCST 24(DI), Z12, Z3
	VPSUBQ.BCST 32(DI), Z13, Z4
	VPSUBQ.BCST 40(DI), Z14, Z5
	VPSUBQ.BCST 48(DI), Z15, Z6
	VPSUBQ.BCST 56(DI), Z16, Z7
	VPSUBQ.BCST 64(DI), Z17, Z8
	VPSUBQ.BCST 72(DI), Z18, Z9
	MOVQ dst+0(FP), DX
	FIXUP
	RET

// func laneAddIFMA(dst, a, b *Lanes, q52 *[laneDigits]uint64)
TEXT ·laneAddIFMA(SB), NOSPLIT, $0-32
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ q52+24(FP), DI
	MOVQ dst+0(FP), DX
	MASK52

	// v = a + b − q, digit by digit.
	VMOVDQU64   0(SI), Z0
	VPADDQ      0(BX), Z0, Z0
	VPSUBQ.BCST 0(DI), Z0, Z0
	VMOVDQU64   64(SI), Z1
	VPADDQ      64(BX), Z1, Z1
	VPSUBQ.BCST 8(DI), Z1, Z1
	VMOVDQU64   128(SI), Z2
	VPADDQ      128(BX), Z2, Z2
	VPSUBQ.BCST 16(DI), Z2, Z2
	VMOVDQU64   192(SI), Z3
	VPADDQ      192(BX), Z3, Z3
	VPSUBQ.BCST 24(DI), Z3, Z3
	VMOVDQU64   256(SI), Z4
	VPADDQ      256(BX), Z4, Z4
	VPSUBQ.BCST 32(DI), Z4, Z4
	VMOVDQU64   320(SI), Z5
	VPADDQ      320(BX), Z5, Z5
	VPSUBQ.BCST 40(DI), Z5, Z5
	VMOVDQU64   384(SI), Z6
	VPADDQ      384(BX), Z6, Z6
	VPSUBQ.BCST 48(DI), Z6, Z6
	VMOVDQU64   448(SI), Z7
	VPADDQ      448(BX), Z7, Z7
	VPSUBQ.BCST 56(DI), Z7, Z7
	VMOVDQU64   512(SI), Z8
	VPADDQ      512(BX), Z8, Z8
	VPSUBQ.BCST 64(DI), Z8, Z8
	VMOVDQU64   576(SI), Z9
	VPADDQ      576(BX), Z9, Z9
	VPSUBQ.BCST 72(DI), Z9, Z9
	FIXUP
	RET

// func laneSubIFMA(dst, a, b *Lanes, q52 *[laneDigits]uint64)
TEXT ·laneSubIFMA(SB), NOSPLIT, $0-32
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ q52+24(FP), DI
	MOVQ dst+0(FP), DX
	MASK52

	// v = a − b, digit by digit.
	VMOVDQU64 0(SI), Z0
	VPSUBQ    0(BX), Z0, Z0
	VMOVDQU64 64(SI), Z1
	VPSUBQ    64(BX), Z1, Z1
	VMOVDQU64 128(SI), Z2
	VPSUBQ    128(BX), Z2, Z2
	VMOVDQU64 192(SI), Z3
	VPSUBQ    192(BX), Z3, Z3
	VMOVDQU64 256(SI), Z4
	VPSUBQ    256(BX), Z4, Z4
	VMOVDQU64 320(SI), Z5
	VPSUBQ    320(BX), Z5, Z5
	VMOVDQU64 384(SI), Z6
	VPSUBQ    384(BX), Z6, Z6
	VMOVDQU64 448(SI), Z7
	VPSUBQ    448(BX), Z7, Z7
	VMOVDQU64 512(SI), Z8
	VPSUBQ    512(BX), Z8, Z8
	VMOVDQU64 576(SI), Z9
	VPSUBQ    576(BX), Z9, Z9
	FIXUP
	RET

// DIGIT stores to off(DX) the 52-bit digit (lo >> r | hi << l) & mask.
#define DIGIT(lo, r, hi, l, off) \
	VPSRLQ    $r, lo, Z8   \
	VPSLLQ    $l, hi, Z9   \
	VPORQ     Z9, Z8, Z8   \
	VPANDQ    Z30, Z8, Z8  \
	VMOVDQU64 Z8, off(DX)

// GATHER loads limb off/8 of the eight elements Z20 points at into r.
#define GATHER(off, r) \
	KXNORW     K1, K1, K1 \
	VPGATHERQQ off(AX)(Z20*1), K1, r

// func laneGatherIFMA(dst *Lanes, src *[8]*Fel)
TEXT ·laneGatherIFMA(SB), NOSPLIT, $0-16
	MOVQ      src+8(FP), SI
	MOVQ      dst+0(FP), DX
	VMOVDQU64 0(SI), Z20
	MASK52
	XORQ      AX, AX
	GATHER(0, Z0)
	GATHER(8, Z1)
	GATHER(16, Z2)
	GATHER(24, Z3)
	GATHER(32, Z4)
	GATHER(40, Z5)
	GATHER(48, Z6)
	GATHER(56, Z7)
	VPANDQ    Z30, Z0, Z8
	VMOVDQU64 Z8, 0(DX)
	DIGIT(Z0, 52, Z1, 12, 64)
	DIGIT(Z1, 40, Z2, 24, 128)
	DIGIT(Z2, 28, Z3, 36, 192)
	DIGIT(Z3, 16, Z4, 48, 256)
	VPSRLQ    $4, Z4, Z8
	VPANDQ    Z30, Z8, Z8
	VMOVDQU64 Z8, 320(DX)
	DIGIT(Z4, 56, Z5, 8, 384)
	DIGIT(Z5, 44, Z6, 20, 448)
	DIGIT(Z6, 32, Z7, 32, 512)
	VPSRLQ    $20, Z7, Z8
	VMOVDQU64 Z8, 576(DX)
	VZEROUPPER
	RET

// LIMB sets r = lo >> rs | hi << ls, a 64-bit limb from two digits.
#define LIMB(lo, rs, hi, ls, r) \
	VPSRLQ $rs, lo, r  \
	VPSLLQ $ls, hi, Z8 \
	VPORQ  Z8, r, r

// SCATTER stores r to limb off/8 of the eight elements Z20 points at.
#define SCATTER(r, off) \
	KXNORW      K1, K1, K1 \
	VPSCATTERQQ r, K1, off(AX)(Z20*1)

// func laneScatterIFMA(src *Lanes, dst *[8]*Fel)
TEXT ·laneScatterIFMA(SB), NOSPLIT, $0-16
	MOVQ      src+0(FP), SI
	MOVQ      dst+8(FP), DX
	VMOVDQU64 0(DX), Z20
	XORQ      AX, AX
	VMOVDQU64 0(SI), Z10
	VMOVDQU64 64(SI), Z11
	VMOVDQU64 128(SI), Z12
	VMOVDQU64 192(SI), Z13
	VMOVDQU64 256(SI), Z14
	VMOVDQU64 320(SI), Z15
	VMOVDQU64 384(SI), Z16
	VMOVDQU64 448(SI), Z17
	VMOVDQU64 512(SI), Z18
	VMOVDQU64 576(SI), Z19
	VPSLLQ    $52, Z11, Z0
	VPORQ     Z10, Z0, Z0
	LIMB(Z11, 12, Z12, 40, Z1)
	LIMB(Z12, 24, Z13, 28, Z2)
	LIMB(Z13, 36, Z14, 16, Z3)
	LIMB(Z14, 48, Z15, 4, Z4)
	VPSLLQ    $56, Z16, Z8
	VPORQ     Z8, Z4, Z4
	LIMB(Z16, 8, Z17, 44, Z5)
	LIMB(Z17, 20, Z18, 32, Z6)
	LIMB(Z18, 32, Z19, 20, Z7)
	SCATTER(Z0, 0)
	SCATTER(Z1, 8)
	SCATTER(Z2, 16)
	SCATTER(Z3, 24)
	SCATTER(Z4, 32)
	SCATTER(Z5, 40)
	SCATTER(Z6, 48)
	SCATTER(Z7, 56)
	VZEROUPPER
	RET
