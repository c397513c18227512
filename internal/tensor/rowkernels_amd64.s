#include "textflag.h"

// SSE2 row kernels (see rowkernels.go). Every product is one MULPS/MULSS and
// every sum one ADDPS/ADDSS, applied to the running dst value in the order the
// Go twin writes them, so each lane computes exactly what the scalar loop
// computes for that element. No FMA: it would fuse the rounding the
// bit-identity pins depend on. Loads and stores are unaligned (MOVUPS); rows
// start wherever the row width puts them. Each block of axpy and add loads
// everything it reads before its first store, which is what lets dst and x
// be one slice; accRows reads src while a strip of dst is in registers, so
// the two must not overlap.

// func axpyKernel(dst []float32, a float32, x []float32)
TEXT ·axpyKernel(SB), NOSPLIT, $0-56
	MOVQ   dst_base+0(FP), DI
	MOVSS  a+24(FP), X0
	MOVQ   x_base+32(FP), SI
	MOVQ   x_len+40(FP), CX
	SHUFPS $0, X0, X0
	CMPQ   CX, $16
	JLT    four

sixteen:
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
	ADDPS  X1, X5
	ADDPS  X2, X6
	ADDPS  X3, X7
	ADDPS  X4, X8
	MOVUPS X5, (DI)
	MOVUPS X6, 16(DI)
	MOVUPS X7, 32(DI)
	MOVUPS X8, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $16, CX
	CMPQ   CX, $16
	JGE    sixteen

four:
	CMPQ   CX, $4
	JLT    tail
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X5
	ADDPS  X1, X5
	MOVUPS X5, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	JMP    four

tail:
	TESTQ CX, CX
	JEQ   done
	MOVSS (SI), X1
	MULSS X0, X1
	MOVSS (DI), X5
	ADDSS X1, X5
	MOVSS X5, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JMP   tail

done:
	RET

// func addKernel(dst, x []float32)
TEXT ·addKernel(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	CMPQ CX, $16
	JLT  four

sixteen:
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS (SI), X4
	MOVUPS 16(SI), X5
	MOVUPS 32(SI), X6
	MOVUPS 48(SI), X7
	ADDPS  X4, X0
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $16, CX
	CMPQ   CX, $16
	JGE    sixteen

four:
	CMPQ   CX, $4
	JLT    tail
	MOVUPS (DI), X0
	MOVUPS (SI), X4
	ADDPS  X4, X0
	MOVUPS X0, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	JMP    four

tail:
	TESTQ CX, CX
	JEQ   done
	MOVSS (DI), X0
	ADDSS (SI), X0
	MOVSS X0, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JMP   tail

done:
	RET

// TERM points R10 at the current strip of term AX's source row — row idx[AX],
// or row AX when idx (R8) is nil — and, when c (R9) is not nil, broadcasts
// c[AX] into X8; with c nil, X8 keeps the 1.0 set at entry.
#define TERM \
	MOVQ    AX, R10; \
	TESTQ   R8, R8; \
	JEQ     2(PC); \
	MOVLQSX (R8)(AX*4), R10; \
	IMULQ   DX, R10; \
	ADDQ    SI, R10; \
	TESTQ   R9, R9; \
	JEQ     3(PC); \
	MOVSS   (R9)(AX*4), X8; \
	SHUFPS  $0, X8, X8

// ACC adds X8 times the four floats at off(R10) to acc, through tmp.
#define ACC(off, acc, tmp) \
	MOVUPS off(R10), tmp; \
	MULPS  X8, tmp; \
	ADDPS  tmp, acc

// func accRowsKernel(dst, src []float32, stride int, idx []int32, c []float32, n int, zero bool)
//
// dst is cut into strips of 32, 16, 8 and 4 floats, then single floats. A
// strip lives in X0-X7 while all n terms are added to it, so it is loaded (or
// cleared to +0) once and stored once per call, whatever n is.
TEXT ·accRowsKernel(SB), NOSPLIT, $0-113
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), BX
	MOVQ    src_base+24(FP), SI
	MOVQ    stride+48(FP), DX
	SHLQ    $2, DX              // row stride in bytes
	MOVQ    idx_base+56(FP), R8
	MOVQ    c_base+80(FP), R9
	MOVQ    n+104(FP), CX
	MOVBQZX zero+112(FP), R11
	MOVQ    $0x3f800000, R10    // 1.0
	MOVQ    R10, X8
	SHUFPS  $0, X8, X8

strip32:
	CMPQ   BX, $32
	JLT    strip16
	TESTQ  R11, R11
	JNE    clear32
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	MOVUPS 64(DI), X4
	MOVUPS 80(DI), X5
	MOVUPS 96(DI), X6
	MOVUPS 112(DI), X7
	JMP    terms32

clear32:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

terms32:
	XORQ AX, AX
	CMPQ AX, CX
	JGE  store32

loop32:
	TERM
	ACC(0, X0, X9)
	ACC(16, X1, X10)
	ACC(32, X2, X11)
	ACC(48, X3, X12)
	ACC(64, X4, X13)
	ACC(80, X5, X14)
	ACC(96, X6, X15)
	ACC(112, X7, X9)
	INCQ AX
	CMPQ AX, CX
	JLT  loop32

store32:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	ADDQ   $128, DI
	ADDQ   $128, SI
	SUBQ   $32, BX
	JMP    strip32

strip16:
	CMPQ   BX, $16
	JLT    strip8
	TESTQ  R11, R11
	JNE    clear16
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS 32(DI), X2
	MOVUPS 48(DI), X3
	JMP    terms16

clear16:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3

terms16:
	XORQ AX, AX
	CMPQ AX, CX
	JGE  store16

loop16:
	TERM
	ACC(0, X0, X9)
	ACC(16, X1, X10)
	ACC(32, X2, X11)
	ACC(48, X3, X12)
	INCQ AX
	CMPQ AX, CX
	JLT  loop16

store16:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	ADDQ   $64, DI
	ADDQ   $64, SI
	SUBQ   $16, BX

strip8:
	CMPQ   BX, $8
	JLT    strip4
	TESTQ  R11, R11
	JNE    clear8
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	JMP    terms8

clear8:
	XORPS X0, X0
	XORPS X1, X1

terms8:
	XORQ AX, AX
	CMPQ AX, CX
	JGE  store8

loop8:
	TERM
	ACC(0, X0, X9)
	ACC(16, X1, X10)
	INCQ AX
	CMPQ AX, CX
	JLT  loop8

store8:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	ADDQ   $32, DI
	ADDQ   $32, SI
	SUBQ   $8, BX

strip4:
	CMPQ   BX, $4
	JLT    strip1
	TESTQ  R11, R11
	JNE    clear4
	MOVUPS (DI), X0
	JMP    terms4

clear4:
	XORPS X0, X0

terms4:
	XORQ AX, AX
	CMPQ AX, CX
	JGE  store4

loop4:
	TERM
	ACC(0, X0, X9)
	INCQ AX
	CMPQ AX, CX
	JLT  loop4

store4:
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, SI
	SUBQ   $4, BX

strip1:
	TESTQ BX, BX
	JEQ   done
	TESTQ R11, R11
	JNE   clear1
	MOVSS (DI), X0
	JMP   terms1

clear1:
	XORPS X0, X0

terms1:
	XORQ AX, AX
	CMPQ AX, CX
	JGE  store1

loop1:
	TERM
	MOVSS (R10), X9
	MULSS X8, X9
	ADDSS X9, X0
	INCQ  AX
	CMPQ  AX, CX
	JLT   loop1

store1:
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, SI
	DECQ  BX
	JMP   strip1

done:
	RET
