#include "textflag.h"

// SSE2 row kernels (see rowkernels.go). Every product is one MULPS/MULSS and
// every sum one ADDPS/ADDSS, applied to the running dst value in the order the
// Go twin writes them, so each lane computes exactly what the scalar loop
// computes for that element. No FMA: it would fuse the rounding the
// bit-identity pins depend on. Loads and stores are unaligned (MOVUPS); rows
// start wherever the row width puts them. Each block loads everything it
// reads before its first store, which is what lets dst and x be one slice.

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

// func axpy4Kernel(dst []float32, a0, a1, a2, a3 float32, b0, b1, b2, b3 []float32)
TEXT ·axpy4Kernel(SB), NOSPLIT, $0-136
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVSS  a0+24(FP), X0
	MOVSS  a1+28(FP), X1
	MOVSS  a2+32(FP), X2
	MOVSS  a3+36(FP), X3
	MOVQ   b0_base+40(FP), R8
	MOVQ   b1_base+64(FP), R9
	MOVQ   b2_base+88(FP), R10
	MOVQ   b3_base+112(FP), R11
	SHUFPS $0, X0, X0
	SHUFPS $0, X1, X1
	SHUFPS $0, X2, X2
	SHUFPS $0, X3, X3
	XORQ   AX, AX               // byte offset shared by dst and the four b rows
	CMPQ   CX, $8
	JLT    four

eight:
	MOVUPS (DI)(AX*1), X4
	MOVUPS 16(DI)(AX*1), X5
	MOVUPS (R8)(AX*1), X6
	MOVUPS 16(R8)(AX*1), X7
	MULPS  X0, X6
	MULPS  X0, X7
	ADDPS  X6, X4
	ADDPS  X7, X5
	MOVUPS (R9)(AX*1), X8
	MOVUPS 16(R9)(AX*1), X9
	MULPS  X1, X8
	MULPS  X1, X9
	ADDPS  X8, X4
	ADDPS  X9, X5
	MOVUPS (R10)(AX*1), X10
	MOVUPS 16(R10)(AX*1), X11
	MULPS  X2, X10
	MULPS  X2, X11
	ADDPS  X10, X4
	ADDPS  X11, X5
	MOVUPS (R11)(AX*1), X12
	MOVUPS 16(R11)(AX*1), X13
	MULPS  X3, X12
	MULPS  X3, X13
	ADDPS  X12, X4
	ADDPS  X13, X5
	MOVUPS X4, (DI)(AX*1)
	MOVUPS X5, 16(DI)(AX*1)
	ADDQ   $32, AX
	SUBQ   $8, CX
	CMPQ   CX, $8
	JGE    eight

four:
	CMPQ   CX, $4
	JLT    tail
	MOVUPS (DI)(AX*1), X4
	MOVUPS (R8)(AX*1), X6
	MULPS  X0, X6
	ADDPS  X6, X4
	MOVUPS (R9)(AX*1), X8
	MULPS  X1, X8
	ADDPS  X8, X4
	MOVUPS (R10)(AX*1), X10
	MULPS  X2, X10
	ADDPS  X10, X4
	MOVUPS (R11)(AX*1), X12
	MULPS  X3, X12
	ADDPS  X12, X4
	MOVUPS X4, (DI)(AX*1)
	ADDQ   $16, AX
	SUBQ   $4, CX

tail:
	TESTQ CX, CX
	JEQ   done
	MOVSS (DI)(AX*1), X4
	MOVSS (R8)(AX*1), X6
	MULSS X0, X6
	ADDSS X6, X4
	MOVSS (R9)(AX*1), X8
	MULSS X1, X8
	ADDSS X8, X4
	MOVSS (R10)(AX*1), X10
	MULSS X2, X10
	ADDSS X10, X4
	MOVSS (R11)(AX*1), X12
	MULSS X3, X12
	ADDSS X12, X4
	MOVSS X4, (DI)(AX*1)
	ADDQ  $4, AX
	DECQ  CX
	JMP   tail

done:
	RET
