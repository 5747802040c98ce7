#include "textflag.h"

// ctSelectAVX2 is ctSelect's full-row scan on CPUs with AVX2: one pass over
// every entry of a montAffine row (136-byte stride: x at 0, y at 64, inf at
// 128), both coordinates at once. Y0–Y3 accumulate x[0:4], x[4:8], y[0:4]
// and y[4:8]. Each entry's mask is built in a general register exactly as
// ctScan builds it — v = j ^ idx, ((v | −v) >> 63) − 1, all-ones only at
// j == idx — and broadcast to Y4; the entry's four 32-byte lanes are ANDed
// with it straight from memory and ORed into the accumulators. Every entry
// is read, no address depends on idx, and the loop counter is the only
// branch (TestCTSelectKernelIsBranchFree). Only VEX-encoded instructions
// touch the X/Y registers, and VZEROUPPER clears their upper halves before
// RET, so no SSE/AVX transition penalty reaches the Go code around it.
//
// Registers: SI = the entry, CX = len(table), DX = j, R8 = idx,
// AX/BX = the mask, DI = dst.

// func ctSelectAVX2(dst *montAffine, table []montAffine, idx uint64)
TEXT ·ctSelectAVX2(SB), NOSPLIT, $0-40
	MOVQ   dst+0(FP), DI
	MOVQ   table_base+8(FP), SI
	MOVQ   table_len+16(FP), CX
	MOVQ   idx+32(FP), R8
	VPXOR  Y0, Y0, Y0
	VPXOR  Y1, Y1, Y1
	VPXOR  Y2, Y2, Y2
	VPXOR  Y3, Y3, Y3
	XORQ   DX, DX

loop:
	CMPQ         DX, CX
	JAE          done
	MOVQ         DX, AX
	XORQ         R8, AX
	MOVQ         AX, BX
	NEGQ         BX
	ORQ          AX, BX
	SHRQ         $63, BX
	DECQ         BX
	VMOVQ        BX, X4
	VPBROADCASTQ X4, Y4
	VPAND        0(SI), Y4, Y5
	VPOR         Y5, Y0, Y0
	VPAND        32(SI), Y4, Y6
	VPOR         Y6, Y1, Y1
	VPAND        64(SI), Y4, Y7
	VPOR         Y7, Y2, Y2
	VPAND        96(SI), Y4, Y8
	VPOR         Y8, Y3, Y3
	ADDQ         $136, SI
	INCQ         DX
	JMP          loop

done:
	VMOVDQU Y0, 0(DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VZEROUPPER
	RET
