#include "textflag.h"

// func scanKernel(q, data, out []float32)
//
// Registers: SI query, CX dimension, DI block cursor, DX output cursor,
// BX blocks left, R8 bytes per block (dim * 8 lanes * 4 bytes). Per
// query element, X4 holds it broadcast to four lanes; X0..X3 hold the
// sixteen running sums of a block pair.
TEXT ·scanKernel(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), SI
	MOVQ q_len+8(FP), CX
	MOVQ data_base+24(FP), DI
	MOVQ out_base+48(FP), DX
	MOVQ out_len+56(FP), BX
	SHRQ $3, BX
	MOVQ CX, R8
	SHLQ $5, R8

pair:
	CMPQ BX, $2
	JLT  single
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	MOVQ SI, R9
	MOVQ DI, R10
	LEAQ (DI)(R8*1), R11
	MOVQ CX, R12

pairloop:
	MOVSS  (R9), X4
	SHUFPS $0x00, X4, X4
	MOVUPS (R10), X5
	MOVAPS X4, X6
	MULPS  X5, X6
	ADDPS  X6, X0
	MOVUPS 16(R10), X7
	MOVAPS X4, X8
	MULPS  X7, X8
	ADDPS  X8, X1
	MOVUPS (R11), X9
	MOVAPS X4, X10
	MULPS  X9, X10
	ADDPS  X10, X2
	MOVUPS 16(R11), X11
	MOVAPS X4, X12
	MULPS  X11, X12
	ADDPS  X12, X3
	ADDQ   $4, R9
	ADDQ   $32, R10
	ADDQ   $32, R11
	DECQ   R12
	JNZ    pairloop

	MOVUPS X0, (DX)
	MOVUPS X1, 16(DX)
	MOVUPS X2, 32(DX)
	MOVUPS X3, 48(DX)
	LEAQ   (DI)(R8*2), DI
	ADDQ   $64, DX
	SUBQ   $2, BX
	JMP    pair

single:
	CMPQ BX, $1
	JLT  done
	XORPS X0, X0
	XORPS X1, X1
	MOVQ SI, R9
	MOVQ DI, R10
	MOVQ CX, R12

singleloop:
	MOVSS  (R9), X4
	SHUFPS $0x00, X4, X4
	MOVUPS (R10), X5
	MOVAPS X4, X6
	MULPS  X5, X6
	ADDPS  X6, X0
	MOVUPS 16(R10), X7
	MOVAPS X4, X8
	MULPS  X7, X8
	ADDPS  X8, X1
	ADDQ   $4, R9
	ADDQ   $32, R10
	DECQ   R12
	JNZ    singleloop

	MOVUPS X0, (DX)
	MOVUPS X1, 16(DX)

done:
	RET
