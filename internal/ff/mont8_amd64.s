#include "textflag.h"

// The paper-width kernels on CPUs with BMI2 and ADX: mul8ADX, the CIOS
// product of mul8, and sqr8ADX, the squaring of sqr8, each one straight-line
// routine returning exactly the limbs the Go kernel returns. MULX forms a
// 128-bit word product without touching the flags, so a row's low halves
// ride one carry chain (ADCX, CF) and its high halves another (ADOX, OF),
// both in flight at once.
//
// The accumulator t0…t9 lives in ten registers. A reduction row leaves t0 at
// zero (that is how u is chosen), so instead of shifting the window down the
// next row names the same registers one place on: the old t0 becomes the new
// t9. A modulus that fills its top limb, as q512 does, can carry a row into
// the ninth word t8 and spill a row's product into the tenth, t9, so both
// are kept, as in mul8. Each routine ends with t < 2q, brought below q by a
// SUB/SBB trial subtraction whose borrow picks t or t − q with CMOVQCS: no
// branch, no table, no index register (TestPaperWidthKernelIsStraightLine).
//
// Registers: SI = a, DI = q, DX = the MULX multiplier (b[i] or aᵢ, then u),
// R14/R15 = a product's low/high word, AX BX CX BP R8–R13 = the accumulator.
// BP is saved by the prologue a non-zero frame makes the assembler emit.

// MULADD adds a·b[off/8] into t0…t9: t9 is zero on entry and the sum stays
// below 2⁵⁷⁷, so t9 leaves as 0 or 1.
#define MULADD(off, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9) \
	MOVQ  b+16(FP), DX    \
	MOVQ  off(DX), DX     \
	XORQ  R14, R14        \
	MULXQ 0(SI), R14, R15 \
	ADCXQ R14, t0         \
	ADOXQ R15, t1         \
	MULXQ 8(SI), R14, R15 \
	ADCXQ R14, t1         \
	ADOXQ R15, t2         \
	MULXQ 16(SI), R14, R15 \
	ADCXQ R14, t2         \
	ADOXQ R15, t3         \
	MULXQ 24(SI), R14, R15 \
	ADCXQ R14, t3         \
	ADOXQ R15, t4         \
	MULXQ 32(SI), R14, R15 \
	ADCXQ R14, t4         \
	ADOXQ R15, t5         \
	MULXQ 40(SI), R14, R15 \
	ADCXQ R14, t5         \
	ADOXQ R15, t6         \
	MULXQ 48(SI), R14, R15 \
	ADCXQ R14, t6         \
	ADOXQ R15, t7         \
	MULXQ 56(SI), R14, R15 \
	ADCXQ R14, t7         \
	ADOXQ R15, t8         \
	MOVQ  $0, R14         \
	ADCXQ R14, t8         \
	ADOXQ R14, t9         \
	ADCXQ R14, t9

// REDUCE adds u·q for u = t0·n0 mod 2⁶⁴, which cancels t0 to zero; the
// caller's next row reads t1…t9, t0 as its t0…t9. DI = q.
#define REDUCE(n0, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9) \
	MOVQ  t0, DX          \
	IMULQ n0, DX          \
	XORQ  R14, R14        \
	MULXQ 0(DI), R14, R15 \
	ADCXQ R14, t0         \
	ADOXQ R15, t1         \
	MULXQ 8(DI), R14, R15 \
	ADCXQ R14, t1         \
	ADOXQ R15, t2         \
	MULXQ 16(DI), R14, R15 \
	ADCXQ R14, t2         \
	ADOXQ R15, t3         \
	MULXQ 24(DI), R14, R15 \
	ADCXQ R14, t3         \
	ADOXQ R15, t4         \
	MULXQ 32(DI), R14, R15 \
	ADCXQ R14, t4         \
	ADOXQ R15, t5         \
	MULXQ 40(DI), R14, R15 \
	ADCXQ R14, t5         \
	ADOXQ R15, t6         \
	MULXQ 48(DI), R14, R15 \
	ADCXQ R14, t6         \
	ADOXQ R15, t7         \
	MULXQ 56(DI), R14, R15 \
	ADCXQ R14, t7         \
	ADOXQ R15, t8         \
	ADCXQ t0, t8          \
	ADOXQ t0, t9          \
	ADCXQ t0, t9

// MUL0 sets t0…t8 = a·b[0]: with nothing to add to yet, one ADD/ADC chain
// over the low halves, the high halves landing straight in t1…t8.
#define MUL0(t0, t1, t2, t3, t4, t5, t6, t7, t8) \
	MOVQ  b+16(FP), DX     \
	MOVQ  0(DX), DX        \
	MULXQ 0(SI), t0, t1    \
	MULXQ 8(SI), R14, t2   \
	ADDQ  R14, t1          \
	MULXQ 16(SI), R14, t3  \
	ADCQ  R14, t2          \
	MULXQ 24(SI), R14, t4  \
	ADCQ  R14, t3          \
	MULXQ 32(SI), R14, t5  \
	ADCQ  R14, t4          \
	MULXQ 40(SI), R14, t6  \
	ADCQ  R14, t5          \
	MULXQ 48(SI), R14, t7  \
	ADCQ  R14, t6          \
	MULXQ 56(SI), R14, t8  \
	ADCQ  R14, t7          \
	ADCQ  $0, t8

// ROW is one CIOS row after the first: add a·b[off/8], then reduce.
#define ROW(off, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9) \
	MULADD(off, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9) \
	REDUCE(n0+32(FP), t0, t1, t2, t3, t4, t5, t6, t7, t8, t9)

// CROSS_TAIL ends a cross-product row: the low-half chain's carry into the
// row's top word, which was zero before the row. The rows summed so far stay
// below 2^(64(i+9)), so nothing carries out of it.
#define CROSS_TAIL(top) \
	MOVQ  $0, R14         \
	ADCXQ R14, top

// SQRREDUCE is REDUCE over the square's window, then adds the next high word
// w of a² into t9, the row's top carry, carrying into the cleared t0: the
// next row reads t1…t9, t0 as its t0…t9.
#define SQRREDUCE(w, t0, t1, t2, t3, t4, t5, t6, t7, t8, t9) \
	REDUCE(n0+24(FP), t0, t1, t2, t3, t4, t5, t6, t7, t8, t9) \
	ADDQ w, t9            \
	ADCQ $0, t0

// FINAL writes t mod q to dst (SI) for t = t0…t7 + t8·2⁵¹² < 2q: store t,
// subtract q in the registers, and where that borrowed past t8 load t back.
#define FINAL(t0, t1, t2, t3, t4, t5, t6, t7, t8) \
	MOVQ    t0, 0(SI)     \
	MOVQ    t1, 8(SI)     \
	MOVQ    t2, 16(SI)    \
	MOVQ    t3, 24(SI)    \
	MOVQ    t4, 32(SI)    \
	MOVQ    t5, 40(SI)    \
	MOVQ    t6, 48(SI)    \
	MOVQ    t7, 56(SI)    \
	SUBQ    0(DI), t0     \
	SBBQ    8(DI), t1     \
	SBBQ    16(DI), t2    \
	SBBQ    24(DI), t3    \
	SBBQ    32(DI), t4    \
	SBBQ    40(DI), t5    \
	SBBQ    48(DI), t6    \
	SBBQ    56(DI), t7    \
	SBBQ    $0, t8        \
	CMOVQCS 0(SI), t0     \
	CMOVQCS 8(SI), t1     \
	CMOVQCS 16(SI), t2    \
	CMOVQCS 24(SI), t3    \
	CMOVQCS 32(SI), t4    \
	CMOVQCS 40(SI), t5    \
	CMOVQCS 48(SI), t6    \
	CMOVQCS 56(SI), t7    \
	MOVQ    t0, 0(SI)     \
	MOVQ    t1, 8(SI)     \
	MOVQ    t2, 16(SI)    \
	MOVQ    t3, 24(SI)    \
	MOVQ    t4, 32(SI)    \
	MOVQ    t5, 40(SI)    \
	MOVQ    t6, 48(SI)    \
	MOVQ    t7, 56(SI)

// func mul8ADX(dst, a, b, q *Fel, n0 uint64)
//
// Eight rows of MULADD then REDUCE, the first row's MULADD as MUL0.
TEXT ·mul8ADX(SB), NOSPLIT, $8-40
	MOVQ a+8(FP), SI
	MOVQ q+24(FP), DI
	MUL0(AX, BX, CX, BP, R8, R9, R10, R11, R12)
	XORQ R13, R13
	REDUCE(n0+32(FP), AX, BX, CX, BP, R8, R9, R10, R11, R12, R13)
	ROW(8, BX, CX, BP, R8, R9, R10, R11, R12, R13, AX)
	ROW(16, CX, BP, R8, R9, R10, R11, R12, R13, AX, BX)
	ROW(24, BP, R8, R9, R10, R11, R12, R13, AX, BX, CX)
	ROW(32, R8, R9, R10, R11, R12, R13, AX, BX, CX, BP)
	ROW(40, R9, R10, R11, R12, R13, AX, BX, CX, BP, R8)
	ROW(48, R10, R11, R12, R13, AX, BX, CX, BP, R8, R9)
	ROW(56, R11, R12, R13, AX, BX, CX, BP, R8, R9, R10)

	MOVQ dst+0(FP), SI
	FINAL(R12, R13, AX, BX, CX, BP, R8, R9, R10)
	RET

// func sqr8ADX(dst, a, q *Fel, n0 uint64)
//
// sqr8ADX is Sqr for k == 8 on CPUs with BMI2 and ADX: the 28 cross products
// aᵢ·aⱼ (i < j) once, doubled and with the squares aᵢ² added on one pass of
// the two carry chains (ADCX x, x doubles; ADOX adds the square), then eight
// REDUCE rows over the 16-word square as sqr8 does. Words w8…w15 of the
// square wait in the frame; w0…w7 stay in registers.
TEXT ·sqr8ADX(SB), NOSPLIT, $64-32
	MOVQ a+8(FP), SI

	// Row 0: c1…c8 = a0·(a1…a7), one ADD/ADC chain.
	MOVQ  0(SI), DX
	MULXQ 8(SI), AX, BX
	MULXQ 16(SI), R14, CX
	ADDQ  R14, BX
	MULXQ 24(SI), R14, BP
	ADCQ  R14, CX
	MULXQ 32(SI), R14, R8
	ADCQ  R14, BP
	MULXQ 40(SI), R14, R9
	ADCQ  R14, R8
	MULXQ 48(SI), R14, R10
	ADCQ  R14, R9
	MULXQ 56(SI), R14, R11
	ADCQ  R14, R10
	ADCQ  $0, R11

	// Row 1: a1·(a2…a7) into c3…c9 (c9 = R12).
	XORQ  R12, R12
	MOVQ  8(SI), DX
	MULXQ 16(SI), R14, R15
	ADCXQ R14, CX
	ADOXQ R15, BP
	MULXQ 24(SI), R14, R15
	ADCXQ R14, BP
	ADOXQ R15, R8
	MULXQ 32(SI), R14, R15
	ADCXQ R14, R8
	ADOXQ R15, R9
	MULXQ 40(SI), R14, R15
	ADCXQ R14, R9
	ADOXQ R15, R10
	MULXQ 48(SI), R14, R15
	ADCXQ R14, R10
	ADOXQ R15, R11
	MULXQ 56(SI), R14, R15
	ADCXQ R14, R11
	ADOXQ R15, R12
	CROSS_TAIL(R12)

	// Row 2: a2·(a3…a7) into c5…c10 (c10 = R13).
	XORQ  R13, R13
	MOVQ  16(SI), DX
	MULXQ 24(SI), R14, R15
	ADCXQ R14, R8
	ADOXQ R15, R9
	MULXQ 32(SI), R14, R15
	ADCXQ R14, R9
	ADOXQ R15, R10
	MULXQ 40(SI), R14, R15
	ADCXQ R14, R10
	ADOXQ R15, R11
	MULXQ 48(SI), R14, R15
	ADCXQ R14, R11
	ADOXQ R15, R12
	MULXQ 56(SI), R14, R15
	ADCXQ R14, R12
	ADOXQ R15, R13
	CROSS_TAIL(R13)

	// Row 3: a3·(a4…a7) into c7…c11 (c11 = DI); c8 is then final.
	XORQ  DI, DI
	MOVQ  24(SI), DX
	MULXQ 32(SI), R14, R15
	ADCXQ R14, R10
	ADOXQ R15, R11
	MULXQ 40(SI), R14, R15
	ADCXQ R14, R11
	ADOXQ R15, R12
	MULXQ 48(SI), R14, R15
	ADCXQ R14, R12
	ADOXQ R15, R13
	MULXQ 56(SI), R14, R15
	ADCXQ R14, R13
	ADOXQ R15, DI
	CROSS_TAIL(DI)
	MOVQ  R11, 0(SP)

	// Row 4: a4·(a5…a7) into c9…c12 (c12 = R11); c9, c10 are then final.
	XORQ  R11, R11
	MOVQ  32(SI), DX
	MULXQ 40(SI), R14, R15
	ADCXQ R14, R12
	ADOXQ R15, R13
	MULXQ 48(SI), R14, R15
	ADCXQ R14, R13
	ADOXQ R15, DI
	MULXQ 56(SI), R14, R15
	ADCXQ R14, DI
	ADOXQ R15, R11
	CROSS_TAIL(R11)
	MOVQ  R12, 8(SP)
	MOVQ  R13, 16(SP)

	// Row 5: a5·(a6, a7) into c11…c13 (c13 = R12); c11, c12 are then final.
	XORQ  R12, R12
	MOVQ  40(SI), DX
	MULXQ 48(SI), R14, R15
	ADCXQ R14, DI
	ADOXQ R15, R11
	MULXQ 56(SI), R14, R15
	ADCXQ R14, R11
	ADOXQ R15, R12
	CROSS_TAIL(R12)
	MOVQ  DI, 24(SP)
	MOVQ  R11, 32(SP)

	// Row 6: a6·a7 into c13, c14 (c14 = R13).
	MOVQ  48(SI), DX
	MULXQ 56(SI), R14, R13
	ADDQ  R14, R12
	ADCQ  $0, R13

	// w = 2c + Σ aᵢ²·2^(128i): ADCX x, x shifts c left a bit across the
	// words, ADOX adds the squares' halves. w0 = R11, w1…w7 stay where
	// c1…c7 are, w8…w15 go to the frame.
	XORQ  R14, R14
	MOVQ  0(SI), DX
	MULXQ DX, R11, R15
	ADCXQ AX, AX
	ADOXQ R15, AX
	MOVQ  8(SI), DX
	MULXQ DX, R14, R15
	ADCXQ BX, BX
	ADOXQ R14, BX
	ADCXQ CX, CX
	ADOXQ R15, CX
	MOVQ  16(SI), DX
	MULXQ DX, R14, R15
	ADCXQ BP, BP
	ADOXQ R14, BP
	ADCXQ R8, R8
	ADOXQ R15, R8
	MOVQ  24(SI), DX
	MULXQ DX, R14, R15
	ADCXQ R9, R9
	ADOXQ R14, R9
	ADCXQ R10, R10
	ADOXQ R15, R10
	MOVQ  32(SI), DX
	MULXQ DX, R14, R15
	MOVQ  0(SP), DI
	ADCXQ DI, DI
	ADOXQ R14, DI
	MOVQ  DI, 0(SP)
	MOVQ  8(SP), DI
	ADCXQ DI, DI
	ADOXQ R15, DI
	MOVQ  DI, 8(SP)
	MOVQ  40(SI), DX
	MULXQ DX, R14, R15
	MOVQ  16(SP), DI
	ADCXQ DI, DI
	ADOXQ R14, DI
	MOVQ  DI, 16(SP)
	MOVQ  24(SP), DI
	ADCXQ DI, DI
	ADOXQ R15, DI
	MOVQ  DI, 24(SP)
	MOVQ  48(SI), DX
	MULXQ DX, R14, R15
	MOVQ  32(SP), DI
	ADCXQ DI, DI
	ADOXQ R14, DI
	MOVQ  DI, 32(SP)
	ADCXQ R12, R12
	ADOXQ R15, R12
	MOVQ  R12, 40(SP)
	MOVQ  56(SI), DX
	MULXQ DX, R14, R15
	ADCXQ R13, R13
	ADOXQ R14, R13
	MOVQ  R13, 48(SP)
	MOVQ  $0, DI
	ADCXQ DI, DI
	ADOXQ R15, DI
	MOVQ  DI, 56(SP)

	// Reduce: window w0…w7, t8 = w8, t9 = 0, the registers rotating one
	// place per row as in mul8ADX.
	MOVQ q+16(FP), DI
	MOVQ 0(SP), R12
	XORQ R13, R13
	SQRREDUCE(8(SP), R11, AX, BX, CX, BP, R8, R9, R10, R12, R13)
	SQRREDUCE(16(SP), AX, BX, CX, BP, R8, R9, R10, R12, R13, R11)
	SQRREDUCE(24(SP), BX, CX, BP, R8, R9, R10, R12, R13, R11, AX)
	SQRREDUCE(32(SP), CX, BP, R8, R9, R10, R12, R13, R11, AX, BX)
	SQRREDUCE(40(SP), BP, R8, R9, R10, R12, R13, R11, AX, BX, CX)
	SQRREDUCE(48(SP), R8, R9, R10, R12, R13, R11, AX, BX, CX, BP)
	SQRREDUCE(56(SP), R9, R10, R12, R13, R11, AX, BX, CX, BP, R8)
	REDUCE(n0+24(FP), R10, R12, R13, R11, AX, BX, CX, BP, R8, R9)
	MOVQ dst+0(FP), SI
	FINAL(R12, R13, R11, AX, BX, CX, BP, R8, R9)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
