//go:build !purego

#include "textflag.h"

// func addLE64(dst []uint64, src []byte)
//
// dst[i] += the little-endian word at src[8i:] for i < len(dst), two
// lanes at a time with PADDQ (wraparound, as uint64 addition). src need
// not be 8-byte aligned; the wrapper has checked its length.
TEXT ·addLE64(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI

add8:
	CMPQ   CX, $8
	JB     add2
	MOVOU  (SI), X0
	MOVOU  16(SI), X1
	MOVOU  32(SI), X2
	MOVOU  48(SI), X3
	MOVOU  (DI), X4
	MOVOU  16(DI), X5
	MOVOU  32(DI), X6
	MOVOU  48(DI), X7
	PADDQ  X0, X4
	PADDQ  X1, X5
	PADDQ  X2, X6
	PADDQ  X3, X7
	MOVOU  X4, (DI)
	MOVOU  X5, 16(DI)
	MOVOU  X6, 32(DI)
	MOVOU  X7, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $8, CX
	JMP    add8

add2:
	CMPQ   CX, $2
	JB     add1
	MOVOU  (SI), X0
	MOVOU  (DI), X4
	PADDQ  X0, X4
	MOVOU  X4, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $2, CX
	JMP    add2

add1:
	TESTQ  CX, CX
	JZ     adddone
	MOVQ   (SI), AX
	ADDQ   AX, (DI)

adddone:
	RET

// func subLE64(dst []uint64, src []byte)
//
// dst[i] -= the little-endian word at src[8i:], as addLE64 with PSUBQ.
TEXT ·subLE64(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI

sub8:
	CMPQ   CX, $8
	JB     sub2
	MOVOU  (SI), X0
	MOVOU  16(SI), X1
	MOVOU  32(SI), X2
	MOVOU  48(SI), X3
	MOVOU  (DI), X4
	MOVOU  16(DI), X5
	MOVOU  32(DI), X6
	MOVOU  48(DI), X7
	PSUBQ  X0, X4
	PSUBQ  X1, X5
	PSUBQ  X2, X6
	PSUBQ  X3, X7
	MOVOU  X4, (DI)
	MOVOU  X5, 16(DI)
	MOVOU  X6, 32(DI)
	MOVOU  X7, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $8, CX
	JMP    sub8

sub2:
	CMPQ   CX, $2
	JB     sub1
	MOVOU  (SI), X0
	MOVOU  (DI), X4
	PSUBQ  X0, X4
	MOVOU  X4, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $2, CX
	JMP    sub2

sub1:
	TESTQ  CX, CX
	JZ     subdone
	MOVQ   (SI), AX
	SUBQ   AX, (DI)

subdone:
	RET
