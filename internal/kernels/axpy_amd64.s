//go:build !purego

#include "textflag.h"

// func axpy(a float32, x, y []float32)
//
// y[j] += a*x[j] for j < len(x), four lanes at a time. Each lane is
// rounded exactly as the scalar loop rounds it: MULPS then ADDPS, with
// the operands in the order the compiler emits for y[j] += a*x[j] (the
// product is x[j]*a, then product+y[j]), so even NaN payloads agree.
TEXT ·axpy(SB), NOSPLIT, $0-56
	MOVSS  a+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), CX
	MOVQ   y_base+32(FP), DI

loop16:
	CMPQ   CX, $16
	JB     loop4
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MOVUPS 32(SI), X3
	MOVUPS 48(SI), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS (DI), X5
	MOVUPS 16(DI), X6
	MOVUPS 32(DI), X7
	MOVUPS 48(DI), X8
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	ADDPS  X8, X4
	MOVUPS X1, (DI)
	MOVUPS X2, 16(DI)
	MOVUPS X3, 32(DI)
	MOVUPS X4, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $16, CX
	JMP    loop16

loop4:
	CMPQ   CX, $4
	JB     tail
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X5
	ADDPS  X5, X1
	MOVUPS X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	JMP    loop4

tail:
	TESTQ  CX, CX
	JZ     done
	MOVSS  (SI), X1
	MULSS  X0, X1
	ADDSS  (DI), X1
	MOVSS  X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    tail

done:
	RET
