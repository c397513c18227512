#include "textflag.h"

// AVX row kernels (see rowkernels.go). Every product is one VMULPS/VMULSS and
// every sum one VADDPS/VADDSS, applied to the running dst value in the order
// the Go twin writes them, so each lane computes exactly what the scalar loop
// computes for that element. No FMA: it would fuse the rounding the
// bit-identity pins depend on. The product's first operand is the source
// value and the sum's the running dst value, as in the scalar loop. Loads and
// stores are unaligned (VMOVUPS); rows start wherever the row width puts them.
// Each block of axpy, add, biasReLU, reluMask and scale loads everything it
// reads before its first store, which is what lets dst be the slice it reads;
// accRows and accRows4 read src while a strip of dst is in registers, and
// scatterEdges reads in while it writes out, so those must not overlap.
//
// Every kernel first reads useAVX, set once at package init
// (rowkernels_amd64.go). Without AVX it tail-jumps to its Go twin, whose
// frame is its own. accRows, accRows4 and scatterEdges also read useAVX512:
// with it set they take 32 floats of a row (scatterEdges 32, then 16) at a
// time in ZMM registers — EVEX VMULPS and VADDPS, the same two roundings per
// term — before the AVX strips take what is left; expKernel, in float64,
// runs a ZMM body instead of its YMM one (see its own comment). Every path
// that touched a YMM or ZMM register ends in VZEROUPPER.

// func axpyKernel(dst []float32, a float32, x []float32)
TEXT ·axpyKernel(SB), NOSPLIT, $0-56
	CMPB         ·useAVX(SB), $0
	JEQ          portable
	MOVQ         dst_base+0(FP), DI
	VBROADCASTSS a+24(FP), Y0
	MOVQ         x_base+32(FP), SI
	MOVQ         x_len+40(FP), CX
	CMPQ         CX, $32
	JLT          eight

thirtytwo:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VMULPS  Y0, Y3, Y3
	VMULPS  Y0, Y4, Y4
	VMOVUPS (DI), Y5
	VMOVUPS 32(DI), Y6
	VMOVUPS 64(DI), Y7
	VMOVUPS 96(DI), Y8
	VADDPS  Y1, Y5, Y5
	VADDPS  Y2, Y6, Y6
	VADDPS  Y3, Y7, Y7
	VADDPS  Y4, Y8, Y8
	VMOVUPS Y5, (DI)
	VMOVUPS Y6, 32(DI)
	VMOVUPS Y7, 64(DI)
	VMOVUPS Y8, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JGE     thirtytwo

eight:
	CMPQ    CX, $8
	JLT     four
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS (DI), Y5
	VADDPS  Y1, Y5, Y5
	VMOVUPS Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     eight

four:
	CMPQ    CX, $4
	JLT     tail
	VMOVUPS (SI), X1
	VMULPS  X0, X1, X1
	VMOVUPS (DI), X5
	VADDPS  X1, X5, X5
	VMOVUPS X5, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI
	SUBQ    $4, CX

tail:
	TESTQ  CX, CX
	JEQ    done
	VMOVSS (SI), X1
	VMULSS X0, X1, X1
	VMOVSS (DI), X5
	VADDSS X1, X5, X5
	VMOVSS X5, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

portable:
	JMP ·axpyGo(SB)

// func addKernel(dst, x []float32)
TEXT ·addKernel(SB), NOSPLIT, $0-48
	CMPB ·useAVX(SB), $0
	JEQ  portable
	MOVQ dst_base+0(FP), DI
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), CX
	CMPQ CX, $32
	JLT  eight

thirtytwo:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JGE     thirtytwo

eight:
	CMPQ    CX, $8
	JLT     four
	VMOVUPS (DI), Y0
	VMOVUPS (SI), Y4
	VADDPS  Y4, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     eight

four:
	CMPQ    CX, $4
	JLT     tail
	VMOVUPS (DI), X0
	VMOVUPS (SI), X4
	VADDPS  X4, X0, X0
	VMOVUPS X0, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI
	SUBQ    $4, CX

tail:
	TESTQ  CX, CX
	JEQ    done
	VMOVSS (DI), X0
	VMOVSS (SI), X4
	VADDSS X4, X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

portable:
	JMP ·addGo(SB)

// TERM points R10 at the current strip of term AX's source row — row idx[AX],
// or row AX when idx (R8) is nil — and, when c (R9) is not nil, broadcasts
// c[AX] into Y8; with c nil, Y8 keeps the 1.0 set at entry.
#define TERM \
	MOVQ         AX, R10; \
	TESTQ        R8, R8; \
	JEQ          2(PC); \
	MOVLQSX      (R8)(AX*4), R10; \
	IMULQ        DX, R10; \
	ADDQ         SI, R10; \
	TESTQ        R9, R9; \
	JEQ          2(PC); \
	VBROADCASTSS (R9)(AX*4), Y8

// ACC adds Y8 times the eight floats at off(R10) to acc, through tmp.
#define ACC(off, acc, tmp) \
	VMOVUPS off(R10), tmp; \
	VMULPS  Y8, tmp, tmp; \
	VADDPS  tmp, acc, acc

// TERMZ is TERM broadcasting c[AX] into all of Z8.
#define TERMZ \
	MOVQ         AX, R10; \
	TESTQ        R8, R8; \
	JEQ          2(PC); \
	MOVLQSX      (R8)(AX*4), R10; \
	IMULQ        DX, R10; \
	ADDQ         SI, R10; \
	TESTQ        R9, R9; \
	JEQ          2(PC); \
	VBROADCASTSS (R9)(AX*4), Z8

// ACCZ adds Z8 times the sixteen floats at off(R10) to acc, through tmp.
#define ACCZ(off, acc, tmp) \
	VMOVUPS off(R10), tmp; \
	VMULPS  Z8, tmp, tmp; \
	VADDPS  tmp, acc, acc

// one is the coefficient of every term when c is nil.
DATA one<>+0(SB)/4, $0x3f800000
GLOBL one<>(SB), RODATA|NOPTR, $4

// dotRowsMask is eight all-ones words, then eight zero words: the eight
// words from index 8−r keep the first r lanes of a masked store.
DATA dotRowsMask<>+0(SB)/4, $0xffffffff
DATA dotRowsMask<>+4(SB)/4, $0xffffffff
DATA dotRowsMask<>+8(SB)/4, $0xffffffff
DATA dotRowsMask<>+12(SB)/4, $0xffffffff
DATA dotRowsMask<>+16(SB)/4, $0xffffffff
DATA dotRowsMask<>+20(SB)/4, $0xffffffff
DATA dotRowsMask<>+24(SB)/4, $0xffffffff
DATA dotRowsMask<>+28(SB)/4, $0xffffffff
DATA dotRowsMask<>+32(SB)/4, $0
DATA dotRowsMask<>+36(SB)/4, $0
DATA dotRowsMask<>+40(SB)/4, $0
DATA dotRowsMask<>+44(SB)/4, $0
DATA dotRowsMask<>+48(SB)/4, $0
DATA dotRowsMask<>+52(SB)/4, $0
DATA dotRowsMask<>+56(SB)/4, $0
DATA dotRowsMask<>+60(SB)/4, $0
GLOBL dotRowsMask<>(SB), RODATA|NOPTR, $64

// func accRowsKernel(dst, src []float32, stride int, idx []int32, c []float32, n int, zero bool)
//
// dst is cut into strips of 32, 16, 8 and 4 floats, then single floats. A
// strip lives in Y0-Y3 (Z0-Z1 with AVX-512; X0 for 4, the low lane of X0 for
// 1) while all n terms are added to it, so it is loaded (or cleared to +0)
// once and stored once per call, whatever n is.
TEXT ·accRowsKernel(SB), NOSPLIT, $0-113
	CMPB         ·useAVX(SB), $0
	JEQ          portable
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), BX
	MOVQ         src_base+24(FP), SI
	MOVQ         stride+48(FP), DX
	SHLQ         $2, DX                // row stride in bytes
	MOVQ         idx_base+56(FP), R8
	MOVQ         c_base+80(FP), R9
	MOVQ         n+104(FP), CX
	MOVBQZX      zero+112(FP), R11
	CMPB         ·useAVX512(SB), $0
	JEQ          avx
	VBROADCASTSS one<>(SB), Z8

zstrip32:
	CMPQ    BX, $32
	JLT     strip16
	TESTQ   R11, R11
	JNE     zclear32
	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	JMP     zterms32

zclear32:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1

zterms32:
	XORQ AX, AX
	CMPQ AX, CX
	JGE  zstore32

zloop32:
	TERMZ
	ACCZ(0, Z0, Z9)
	ACCZ(64, Z1, Z10)
	INCQ AX
	CMPQ AX, CX
	JLT  zloop32

zstore32:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, BX
	JMP     zstrip32

avx:
	VBROADCASTSS one<>(SB), Y8

strip32:
	CMPQ    BX, $32
	JLT     strip16
	TESTQ   R11, R11
	JNE     clear32
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	JMP     terms32

clear32:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

terms32:
	XORQ AX, AX
	CMPQ AX, CX
	JGE  store32

loop32:
	TERM
	ACC(0, Y0, Y9)
	ACC(32, Y1, Y10)
	ACC(64, Y2, Y11)
	ACC(96, Y3, Y12)
	INCQ AX
	CMPQ AX, CX
	JLT  loop32

store32:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, BX
	JMP     strip32

strip16:
	CMPQ    BX, $16
	JLT     strip8
	TESTQ   R11, R11
	JNE     clear16
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	JMP     terms16

clear16:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

terms16:
	XORQ AX, AX
	CMPQ AX, CX
	JGE  store16

loop16:
	TERM
	ACC(0, Y0, Y9)
	ACC(32, Y1, Y10)
	INCQ AX
	CMPQ AX, CX
	JLT  loop16

store16:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	SUBQ    $16, BX

strip8:
	CMPQ    BX, $8
	JLT     strip4
	TESTQ   R11, R11
	JNE     clear8
	VMOVUPS (DI), Y0
	JMP     terms8

clear8:
	VXORPS Y0, Y0, Y0

terms8:
	XORQ AX, AX
	CMPQ AX, CX
	JGE  store8

loop8:
	TERM
	ACC(0, Y0, Y9)
	INCQ AX
	CMPQ AX, CX
	JLT  loop8

store8:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, BX

strip4:
	CMPQ    BX, $4
	JLT     strip1
	TESTQ   R11, R11
	JNE     clear4
	VMOVUPS (DI), X0
	JMP     terms4

clear4:
	VXORPS X0, X0, X0

terms4:
	XORQ AX, AX
	CMPQ AX, CX
	JGE  store4

loop4:
	TERM
	VMOVUPS (R10), X9
	VMULPS  X8, X9, X9
	VADDPS  X9, X0, X0
	INCQ    AX
	CMPQ    AX, CX
	JLT     loop4

store4:
	VMOVUPS X0, (DI)
	ADDQ    $16, DI
	ADDQ    $16, SI
	SUBQ    $4, BX

strip1:
	TESTQ  BX, BX
	JEQ    done
	TESTQ  R11, R11
	JNE    clear1
	VMOVSS (DI), X0
	JMP    terms1

clear1:
	VXORPS X0, X0, X0

terms1:
	XORQ AX, AX
	CMPQ AX, CX
	JGE  store1

loop1:
	TERM
	VMOVSS (R10), X9
	VMULSS X8, X9, X9
	VADDSS X9, X0, X0
	INCQ   AX
	CMPQ   AX, CX
	JLT    loop1

store1:
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	DECQ   BX
	JMP    strip1

done:
	VZEROUPPER
	RET

portable:
	JMP ·accRowsGo(SB)

// ROW32, ROW16, ROW8, ROW4 and ROW1 add one term to one destination row of
// the tile: they broadcast the row's coefficient from coef into Z13 (Y13,
// X13) and add its products with the source strip in Z8:Z9, Y8:Y9, Y8, X8 or
// the low lane of X8 to the row's accumulators.
#define ROW32(coef, acc0, acc1) \
	VBROADCASTSS coef, Z13; \
	VMULPS       Z13, Z8, Z10; \
	VMULPS       Z13, Z9, Z11; \
	VADDPS       Z10, acc0, acc0; \
	VADDPS       Z11, acc1, acc1

#define ROW16(coef, acc0, acc1) \
	VBROADCASTSS coef, Y13; \
	VMULPS       Y13, Y8, Y10; \
	VMULPS       Y13, Y9, Y11; \
	VADDPS       Y10, acc0, acc0; \
	VADDPS       Y11, acc1, acc1

#define ROW8(coef, acc) \
	VBROADCASTSS coef, Y13; \
	VMULPS       Y13, Y8, Y10; \
	VADDPS       Y10, acc, acc

#define ROW4(coef, acc) \
	VBROADCASTSS coef, X13; \
	VMULPS       X13, X8, X10; \
	VADDPS       X10, acc, acc

#define ROW1(coef, acc) \
	VMOVSS coef, X13; \
	VMULSS X13, X8, X10; \
	VADDSS X10, acc, acc

// func accRows4Kernel(dst []float32, ds, w int, src []float32, ss int, c []float32, cr, ct, n int, zero bool)
//
// Four destination rows, ds floats apart, each w floats wide, are cut into
// strips of 32 floats (AVX-512 only), 16, 8 and 4 floats, then single floats.
// The four rows of a strip live in Z0-Z7 or Y0-Y7 (two registers a row for 32
// and 16, one for 8, X0, X2, X4 and X6 for 4 and their low lanes for 1)
// while all n terms are added to them: each term's strip of source row t (ss
// floats apart) is loaded once, into Z8:Z9 or Y8:Y9, and multiplied by the
// four rows' coefficients c[r·cr + t·ct], each broadcast from memory: row r's
// at R8 + r·cr, R8 stepping ct floats a term, and 3·cr kept in R12.
TEXT ·accRows4Kernel(SB), NOSPLIT, $0-121
	CMPB    ·useAVX(SB), $0
	JEQ     portable
	MOVQ    dst_base+0(FP), DI
	MOVQ    ds+24(FP), R14
	SHLQ    $2, R14              // dst row stride in bytes
	MOVQ    w+32(FP), BX
	MOVQ    src_base+40(FP), SI
	MOVQ    ss+64(FP), DX
	SHLQ    $2, DX               // source row stride in bytes
	MOVQ    cr+96(FP), R13
	SHLQ    $2, R13              // coefficient row stride in bytes
	LEAQ    (R13)(R13*2), R12    // three of them
	MOVQ    ct+104(FP), R9
	SHLQ    $2, R9               // coefficient term stride in bytes
	MOVQ    n+112(FP), CX
	MOVBQZX zero+120(FP), R11
	CMPB    ·useAVX512(SB), $0
	JEQ     strip16

strip32:
	CMPQ    BX, $32
	JLT     strip16
	TESTQ   R11, R11
	JNE     clear32
	MOVQ    DI, R10
	VMOVUPS (R10), Z0
	VMOVUPS 64(R10), Z1
	ADDQ    R14, R10
	VMOVUPS (R10), Z2
	VMOVUPS 64(R10), Z3
	ADDQ    R14, R10
	VMOVUPS (R10), Z4
	VMOVUPS 64(R10), Z5
	ADDQ    R14, R10
	VMOVUPS (R10), Z6
	VMOVUPS 64(R10), Z7
	JMP     terms32

clear32:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

terms32:
	MOVQ  SI, R10
	MOVQ  c_base+72(FP), R8
	MOVQ  CX, AX
	TESTQ AX, AX
	JEQ   store32

loop32:
	VMOVUPS (R10), Z8
	VMOVUPS 64(R10), Z9
	ROW32((R8), Z0, Z1)
	ROW32((R8)(R13*1), Z2, Z3)
	ROW32((R8)(R13*2), Z4, Z5)
	ROW32((R8)(R12*1), Z6, Z7)
	ADDQ    DX, R10
	ADDQ    R9, R8
	DECQ    AX
	JNE     loop32

store32:
	MOVQ    DI, R10
	VMOVUPS Z0, (R10)
	VMOVUPS Z1, 64(R10)
	ADDQ    R14, R10
	VMOVUPS Z2, (R10)
	VMOVUPS Z3, 64(R10)
	ADDQ    R14, R10
	VMOVUPS Z4, (R10)
	VMOVUPS Z5, 64(R10)
	ADDQ    R14, R10
	VMOVUPS Z6, (R10)
	VMOVUPS Z7, 64(R10)
	ADDQ    $128, DI
	ADDQ    $128, SI
	SUBQ    $32, BX
	JMP     strip32

strip16:
	CMPQ    BX, $16
	JLT     strip8
	TESTQ   R11, R11
	JNE     clear16
	MOVQ    DI, R10
	VMOVUPS (R10), Y0
	VMOVUPS 32(R10), Y1
	ADDQ    R14, R10
	VMOVUPS (R10), Y2
	VMOVUPS 32(R10), Y3
	ADDQ    R14, R10
	VMOVUPS (R10), Y4
	VMOVUPS 32(R10), Y5
	ADDQ    R14, R10
	VMOVUPS (R10), Y6
	VMOVUPS 32(R10), Y7
	JMP     terms16

clear16:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

terms16:
	MOVQ  SI, R10
	MOVQ  c_base+72(FP), R8
	MOVQ  CX, AX
	TESTQ AX, AX
	JEQ   store16

loop16:
	VMOVUPS (R10), Y8
	VMOVUPS 32(R10), Y9
	ROW16((R8), Y0, Y1)
	ROW16((R8)(R13*1), Y2, Y3)
	ROW16((R8)(R13*2), Y4, Y5)
	ROW16((R8)(R12*1), Y6, Y7)
	ADDQ    DX, R10
	ADDQ    R9, R8
	DECQ    AX
	JNE     loop16

store16:
	MOVQ    DI, R10
	VMOVUPS Y0, (R10)
	VMOVUPS Y1, 32(R10)
	ADDQ    R14, R10
	VMOVUPS Y2, (R10)
	VMOVUPS Y3, 32(R10)
	ADDQ    R14, R10
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, 32(R10)
	ADDQ    R14, R10
	VMOVUPS Y6, (R10)
	VMOVUPS Y7, 32(R10)
	ADDQ    $64, DI
	ADDQ    $64, SI
	SUBQ    $16, BX
	JMP     strip16

strip8:
	CMPQ    BX, $8
	JLT     strip4
	TESTQ   R11, R11
	JNE     clear8
	MOVQ    DI, R10
	VMOVUPS (R10), Y0
	ADDQ    R14, R10
	VMOVUPS (R10), Y2
	ADDQ    R14, R10
	VMOVUPS (R10), Y4
	ADDQ    R14, R10
	VMOVUPS (R10), Y6
	JMP     terms8

clear8:
	VXORPS Y0, Y0, Y0
	VXORPS Y2, Y2, Y2
	VXORPS Y4, Y4, Y4
	VXORPS Y6, Y6, Y6

terms8:
	MOVQ  SI, R10
	MOVQ  c_base+72(FP), R8
	MOVQ  CX, AX
	TESTQ AX, AX
	JEQ   store8

loop8:
	VMOVUPS (R10), Y8
	ROW8((R8), Y0)
	ROW8((R8)(R13*1), Y2)
	ROW8((R8)(R13*2), Y4)
	ROW8((R8)(R12*1), Y6)
	ADDQ    DX, R10
	ADDQ    R9, R8
	DECQ    AX
	JNE     loop8

store8:
	MOVQ    DI, R10
	VMOVUPS Y0, (R10)
	ADDQ    R14, R10
	VMOVUPS Y2, (R10)
	ADDQ    R14, R10
	VMOVUPS Y4, (R10)
	ADDQ    R14, R10
	VMOVUPS Y6, (R10)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, BX

strip4:
	CMPQ    BX, $4
	JLT     strip1
	TESTQ   R11, R11
	JNE     clear4
	MOVQ    DI, R10
	VMOVUPS (R10), X0
	ADDQ    R14, R10
	VMOVUPS (R10), X2
	ADDQ    R14, R10
	VMOVUPS (R10), X4
	ADDQ    R14, R10
	VMOVUPS (R10), X6
	JMP     terms4

clear4:
	VXORPS X0, X0, X0
	VXORPS X2, X2, X2
	VXORPS X4, X4, X4
	VXORPS X6, X6, X6

terms4:
	MOVQ  SI, R10
	MOVQ  c_base+72(FP), R8
	MOVQ  CX, AX
	TESTQ AX, AX
	JEQ   store4

loop4:
	VMOVUPS (R10), X8
	ROW4((R8), X0)
	ROW4((R8)(R13*1), X2)
	ROW4((R8)(R13*2), X4)
	ROW4((R8)(R12*1), X6)
	ADDQ    DX, R10
	ADDQ    R9, R8
	DECQ    AX
	JNE     loop4

store4:
	MOVQ    DI, R10
	VMOVUPS X0, (R10)
	ADDQ    R14, R10
	VMOVUPS X2, (R10)
	ADDQ    R14, R10
	VMOVUPS X4, (R10)
	ADDQ    R14, R10
	VMOVUPS X6, (R10)
	ADDQ    $16, DI
	ADDQ    $16, SI
	SUBQ    $4, BX

strip1:
	TESTQ   BX, BX
	JEQ     done
	TESTQ   R11, R11
	JNE     clear1
	MOVQ    DI, R10
	VMOVSS  (R10), X0
	ADDQ    R14, R10
	VMOVSS  (R10), X2
	ADDQ    R14, R10
	VMOVSS  (R10), X4
	ADDQ    R14, R10
	VMOVSS  (R10), X6
	JMP     terms1

clear1:
	VXORPS X0, X0, X0
	VXORPS X2, X2, X2
	VXORPS X4, X4, X4
	VXORPS X6, X6, X6

terms1:
	MOVQ  SI, R10
	MOVQ  c_base+72(FP), R8
	MOVQ  CX, AX
	TESTQ AX, AX
	JEQ   store1

loop1:
	VMOVSS (R10), X8
	ROW1((R8), X0)
	ROW1((R8)(R13*1), X2)
	ROW1((R8)(R13*2), X4)
	ROW1((R8)(R12*1), X6)
	ADDQ   DX, R10
	ADDQ   R9, R8
	DECQ   AX
	JNE    loop1

store1:
	MOVQ   DI, R10
	VMOVSS X0, (R10)
	ADDQ   R14, R10
	VMOVSS X2, (R10)
	ADDQ   R14, R10
	VMOVSS X4, (R10)
	ADDQ   R14, R10
	VMOVSS X6, (R10)
	ADDQ   $4, DI
	ADDQ   $4, SI
	DECQ   BX
	JMP    strip1

done:
	VZEROUPPER
	RET

portable:
	JMP ·accRows4Go(SB)

// func anyZeroKernel(a []float32, rows, w, stride int) bool
//
// Each row is compared with +0 (VCMPPS EQ_OQ, true for +0 and -0 and false
// for NaN) 32, 8 and 4 floats at a time, then one float at a time on its
// bits; the row's compare masks are OR-ed in Y0 and tested once at its end.
// Rows of exactly four floats (TA's column groups) go four rows to a test
// first, the rest of them through the general loop.
TEXT ·anyZeroKernel(SB), NOSPLIT, $0-49
	CMPB   ·useAVX(SB), $0
	JEQ    portable
	MOVQ   a_base+0(FP), SI
	MOVQ   rows+24(FP), CX
	MOVQ   w+32(FP), BX
	MOVQ   stride+40(FP), DX
	SHLQ   $2, DX              // row stride in bytes
	VXORPS Y15, Y15, Y15
	CMPQ   BX, $4
	JNE    row
	LEAQ   (DX)(DX*2), R9      // three row strides

quad:
	CMPQ      CX, $4
	JLT       row
	VCMPPS    $0, (SI), X15, X1
	VCMPPS    $0, (SI)(DX*1), X15, X2
	VCMPPS    $0, (SI)(DX*2), X15, X3
	VCMPPS    $0, (SI)(R9*1), X15, X4
	VORPS     X2, X1, X1
	VORPS     X4, X3, X3
	VORPS     X3, X1, X1
	VMOVMSKPS X1, R8
	TESTL     R8, R8
	JNE       found
	LEAQ      (SI)(DX*4), SI
	SUBQ      $4, CX
	JMP       quad

row:
	TESTQ  CX, CX
	JEQ    none
	MOVQ   SI, R10
	MOVQ   BX, AX
	VXORPS Y0, Y0, Y0

scan32:
	CMPQ   AX, $32
	JLT    scan8
	VCMPPS $0, (R10), Y15, Y1
	VCMPPS $0, 32(R10), Y15, Y2
	VCMPPS $0, 64(R10), Y15, Y3
	VCMPPS $0, 96(R10), Y15, Y4
	VORPS  Y1, Y0, Y0
	VORPS  Y2, Y0, Y0
	VORPS  Y3, Y0, Y0
	VORPS  Y4, Y0, Y0
	ADDQ   $128, R10
	SUBQ   $32, AX
	JMP    scan32

scan8:
	CMPQ   AX, $8
	JLT    scan4
	VCMPPS $0, (R10), Y15, Y1
	VORPS  Y1, Y0, Y0
	ADDQ   $32, R10
	SUBQ   $8, AX
	JMP    scan8

scan4:
	CMPQ   AX, $4
	JLT    scan1
	VCMPPS $0, (R10), X15, X1 // clears the upper lane of Y1
	VORPS  Y1, Y0, Y0
	ADDQ   $16, R10
	SUBQ   $4, AX

scan1:
	TESTQ AX, AX
	JEQ   endrow
	MOVL  (R10), R8
	ANDL  $0x7fffffff, R8
	JEQ   found
	ADDQ  $4, R10
	DECQ  AX
	JMP   scan1

endrow:
	VMOVMSKPS Y0, R8
	TESTL     R8, R8
	JNE       found
	ADDQ      DX, SI
	DECQ      CX
	JMP       row

none:
	MOVB $0, ret+48(FP)
	VZEROUPPER
	RET

found:
	MOVB $1, ret+48(FP)
	VZEROUPPER
	RET

portable:
	JMP ·anyZeroGo(SB)

// func scatterEdgesKernel(out, in []float32, cols int, oi, ii []int32, c []float32, n int)
//
// One edge at a time, in ascending e: R11 points at output row oi[e] (row e
// when oi is nil), R12 at input row ii[e] (row e when ii is nil), and c[e]
// (1 when c is nil) is broadcast into Y8 (Z8 with AVX-512); then the output
// row takes its products 32 floats at a time (AVX-512: 32, then 16), then 8,
// each strip loaded, added to and stored before the next edge is read, so an
// output row two edges share sees the first edge's stores. cols is a
// multiple of 8.
TEXT ·scatterEdgesKernel(SB), NOSPLIT, $0-136
	CMPB    ·useAVX(SB), $0
	JEQ     portable
	MOVQ    out_base+0(FP), DI
	MOVQ    in_base+24(FP), SI
	MOVQ    cols+48(FP), DX
	SHLQ    $2, DX               // row stride in bytes
	MOVQ    oi_base+56(FP), R8
	MOVQ    ii_base+80(FP), R9
	MOVQ    c_base+104(FP), R10
	MOVQ    n+128(FP), CX
	XORQ    AX, AX
	CMPB    ·useAVX512(SB), $0
	JEQ     avx
	VBROADCASTSS one<>(SB), Z8

zedge:
	CMPQ    AX, CX
	JGE     done
	MOVQ    AX, R11
	TESTQ   R8, R8
	JEQ     2(PC)
	MOVLQSX (R8)(AX*4), R11
	IMULQ   DX, R11
	ADDQ    DI, R11
	MOVQ    AX, R12
	TESTQ   R9, R9
	JEQ     2(PC)
	MOVLQSX (R9)(AX*4), R12
	IMULQ   DX, R12
	ADDQ    SI, R12
	TESTQ   R10, R10
	JEQ     2(PC)
	VBROADCASTSS (R10)(AX*4), Z8
	MOVQ    DX, BX               // bytes of the row left

z128:
	CMPQ    BX, $128
	JLT     z64
	VMOVUPS (R12), Z1
	VMOVUPS 64(R12), Z2
	VMULPS  Z8, Z1, Z1
	VMULPS  Z8, Z2, Z2
	VMOVUPS (R11), Z3
	VMOVUPS 64(R11), Z4
	VADDPS  Z1, Z3, Z3
	VADDPS  Z2, Z4, Z4
	VMOVUPS Z3, (R11)
	VMOVUPS Z4, 64(R11)
	ADDQ    $128, R11
	ADDQ    $128, R12
	SUBQ    $128, BX
	JMP     z128

z64:
	CMPQ    BX, $64
	JLT     z32
	VMOVUPS (R12), Z1
	VMULPS  Z8, Z1, Z1
	VMOVUPS (R11), Z3
	VADDPS  Z1, Z3, Z3
	VMOVUPS Z3, (R11)
	ADDQ    $64, R11
	ADDQ    $64, R12
	SUBQ    $64, BX

z32:
	TESTQ   BX, BX
	JEQ     znext
	VMOVUPS (R12), Y1
	VMULPS  Y8, Y1, Y1
	VMOVUPS (R11), Y3
	VADDPS  Y1, Y3, Y3
	VMOVUPS Y3, (R11)

znext:
	INCQ    AX
	JMP     zedge

avx:
	VBROADCASTSS one<>(SB), Y8

edge:
	CMPQ    AX, CX
	JGE     done
	MOVQ    AX, R11
	TESTQ   R8, R8
	JEQ     2(PC)
	MOVLQSX (R8)(AX*4), R11
	IMULQ   DX, R11
	ADDQ    DI, R11
	MOVQ    AX, R12
	TESTQ   R9, R9
	JEQ     2(PC)
	MOVLQSX (R9)(AX*4), R12
	IMULQ   DX, R12
	ADDQ    SI, R12
	TESTQ   R10, R10
	JEQ     2(PC)
	VBROADCASTSS (R10)(AX*4), Y8
	MOVQ    DX, BX

y128:
	CMPQ    BX, $128
	JLT     y32
	VMOVUPS (R12), Y1
	VMOVUPS 32(R12), Y2
	VMOVUPS 64(R12), Y3
	VMOVUPS 96(R12), Y4
	VMULPS  Y8, Y1, Y1
	VMULPS  Y8, Y2, Y2
	VMULPS  Y8, Y3, Y3
	VMULPS  Y8, Y4, Y4
	VMOVUPS (R11), Y5
	VMOVUPS 32(R11), Y6
	VMOVUPS 64(R11), Y7
	VMOVUPS 96(R11), Y9
	VADDPS  Y1, Y5, Y5
	VADDPS  Y2, Y6, Y6
	VADDPS  Y3, Y7, Y7
	VADDPS  Y4, Y9, Y9
	VMOVUPS Y5, (R11)
	VMOVUPS Y6, 32(R11)
	VMOVUPS Y7, 64(R11)
	VMOVUPS Y9, 96(R11)
	ADDQ    $128, R11
	ADDQ    $128, R12
	SUBQ    $128, BX
	JMP     y128

y32:
	TESTQ   BX, BX
	JEQ     next
	VMOVUPS (R12), Y1
	VMULPS  Y8, Y1, Y1
	VMOVUPS (R11), Y5
	VADDPS  Y1, Y5, Y5
	VMOVUPS Y5, (R11)
	ADDQ    $32, R11
	ADDQ    $32, R12
	SUBQ    $32, BX
	JMP     y32

next:
	INCQ    AX
	JMP     edge

done:
	VZEROUPPER
	RET

portable:
	JMP ·scatterEdgesGo(SB)

// func biasReLUKernel(dst, x, bias []float32)
//
// dst[j] = max(x[j] + bias[j], +0): VADDPS with x as its first operand, then
// VMAXPS with the sum as the first source and +0 as the second, which is
// what VMAXPS returns when the first is not greater — so a NaN, −0 or
// negative sum comes out +0, as posMask makes it. 32, 8 and 4 floats at a
// time, then one.
TEXT ·biasReLUKernel(SB), NOSPLIT, $0-72
	CMPB   ·useAVX(SB), $0
	JEQ    portable
	MOVQ   dst_base+0(FP), DI
	MOVQ   x_base+24(FP), SI
	MOVQ   bias_base+48(FP), DX
	MOVQ   bias_len+56(FP), CX
	VXORPS Y15, Y15, Y15

thirtytwo:
	CMPQ    CX, $32
	JLT     eight
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VADDPS  (DX), Y0, Y0
	VADDPS  32(DX), Y1, Y1
	VADDPS  64(DX), Y2, Y2
	VADDPS  96(DX), Y3, Y3
	VMAXPS  Y15, Y0, Y0
	VMAXPS  Y15, Y1, Y1
	VMAXPS  Y15, Y2, Y2
	VMAXPS  Y15, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     thirtytwo

eight:
	CMPQ    CX, $8
	JLT     four
	VMOVUPS (SI), Y0
	VADDPS  (DX), Y0, Y0
	VMAXPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     eight

four:
	CMPQ    CX, $4
	JLT     tail
	VMOVUPS (SI), X0
	VMOVUPS (DX), X1
	VADDPS  X1, X0, X0
	VMAXPS  X15, X0, X0
	VMOVUPS X0, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DX
	ADDQ    $16, DI
	SUBQ    $4, CX

tail:
	TESTQ  CX, CX
	JEQ    done
	VMOVSS (SI), X0
	VMOVSS (DX), X1
	VADDSS X1, X0, X0
	VMAXSS X15, X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DX
	ADDQ   $4, DI
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

portable:
	JMP ·biasReLUGo(SB)

// func reluMaskKernel(dst, g, o []float32)
//
// dst[j] = g[j] AND (0 < o[j]): VCMPPS with predicate LT_OQ (ordered, so a
// NaN compares false) gives all ones exactly where o[j] > 0 — positive
// subnormals included — and VANDPS keeps g's bits there and +0 elsewhere.
// 32, 8 and 4 floats at a time, then one.
TEXT ·reluMaskKernel(SB), NOSPLIT, $0-72
	CMPB   ·useAVX(SB), $0
	JEQ    portable
	MOVQ   dst_base+0(FP), DI
	MOVQ   g_base+24(FP), SI
	MOVQ   o_base+48(FP), DX
	MOVQ   o_len+56(FP), CX
	VXORPS Y15, Y15, Y15

thirtytwo:
	CMPQ    CX, $32
	JLT     eight
	VCMPPS  $0x11, (DX), Y15, Y0
	VCMPPS  $0x11, 32(DX), Y15, Y1
	VCMPPS  $0x11, 64(DX), Y15, Y2
	VCMPPS  $0x11, 96(DX), Y15, Y3
	VANDPS  (SI), Y0, Y0
	VANDPS  32(SI), Y1, Y1
	VANDPS  64(SI), Y2, Y2
	VANDPS  96(SI), Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     thirtytwo

eight:
	CMPQ    CX, $8
	JLT     four
	VCMPPS  $0x11, (DX), Y15, Y0
	VANDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     eight

four:
	CMPQ    CX, $4
	JLT     tail
	VCMPPS  $0x11, (DX), X15, X0
	VANDPS  (SI), X0, X0
	VMOVUPS X0, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DX
	ADDQ    $16, DI
	SUBQ    $4, CX

tail:
	TESTQ  CX, CX
	JEQ    done
	VMOVSS (DX), X1
	VCMPSS $0x11, X1, X15, X0
	VMOVSS (SI), X1
	VANDPS X1, X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DX
	ADDQ   $4, DI
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

portable:
	JMP ·reluMaskGo(SB)

// func scaleKernel(dst []float32, a float32, x []float32)
//
// dst[j] = x[j]·a, one VMULPS (VMULSS) with x as its first operand, 32, 8
// and 4 floats at a time, then one.
TEXT ·scaleKernel(SB), NOSPLIT, $0-56
	CMPB         ·useAVX(SB), $0
	JEQ          portable
	MOVQ         dst_base+0(FP), DI
	VBROADCASTSS a+24(FP), Y8
	MOVQ         x_base+32(FP), SI
	MOVQ         x_len+40(FP), CX

thirtytwo:
	CMPQ    CX, $32
	JLT     eight
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMULPS  Y8, Y0, Y0
	VMULPS  Y8, Y1, Y1
	VMULPS  Y8, Y2, Y2
	VMULPS  Y8, Y3, Y3
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     thirtytwo

eight:
	CMPQ    CX, $8
	JLT     four
	VMOVUPS (SI), Y0
	VMULPS  Y8, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     eight

four:
	CMPQ    CX, $4
	JLT     tail
	VMOVUPS (SI), X0
	VMULPS  X8, X0, X0
	VMOVUPS X0, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DI
	SUBQ    $4, CX

tail:
	TESTQ  CX, CX
	JEQ    done
	VMOVSS (SI), X0
	VMULSS X8, X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JMP    tail

done:
	VZEROUPPER
	RET

portable:
	JMP ·scaleGo(SB)

// func cpuid1() (ecx uint32)
TEXT ·cpuid1(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ecx+0(FP)
	RET

// func xcr0() (eax uint32)
TEXT ·xcr0(SB), NOSPLIT, $0-4
	XORL   CX, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	RET

// func cpuid7() (ebx uint32)
TEXT ·cpuid7(SB), NOSPLIT, $0-4
	XORL AX, AX
	XORL CX, CX
	CPUID
	XORL BX, BX
	CMPL AX, $7
	JLT  none
	MOVL $7, AX
	XORL CX, CX
	CPUID

none:
	MOVL BX, ebx+0(FP)
	RET

// func dotRowsKernel(out, g, x []float32, cols int, idx []int32, n int)
//
// Eight rows at a time: R8-R13, BX and DX point at rows r(t)..r(t+7), and
// each 8-float block of the eight rows, loaded into Y0-Y7, is transposed in
// registers with AVX1 shuffles only (VUNPCKLPS/VUNPCKHPS, VSHUFPS,
// VPERM2F128), so that column k of the block — element k of every row — is
// one register. The columns are then multiplied by a VBROADCASTSS of g[k]
// and added into the one accumulator Y8 in ascending k: lane i of Y8 sums
// row t+i's products from +0 in ascending k, one VMULPS (the row's value
// first) and one VADDPS (the running sum first) per term, as the scalar dot
// loop does. One to seven rows past the last eight are one more group whose
// spare lanes read the last row again; a VMASKMOVPS stores only the lanes
// of real rows. cols is a multiple of 8.
TEXT ·dotRowsKernel(SB), NOSPLIT, $0-112
	CMPB ·useAVX(SB), $0
	JEQ  portable
	MOVQ g_base+24(FP), DI
	MOVQ cols+72(FP), CX
	SHLQ $2, CX                // row bytes
	XORQ AX, AX                // t

group:
	MOVQ n+104(FP), SI
	SUBQ AX, SI
	CMPQ SI, $8
	JLT  rest
	MOVQ idx_base+80(FP), DX
	TESTQ DX, DX
	JEQ  identity
	MOVLQSX 0(DX)(AX*4), R8
	MOVLQSX 4(DX)(AX*4), R9
	MOVLQSX 8(DX)(AX*4), R10
	MOVLQSX 12(DX)(AX*4), R11
	MOVLQSX 16(DX)(AX*4), R12
	MOVLQSX 20(DX)(AX*4), R13
	MOVLQSX 24(DX)(AX*4), BX
	MOVLQSX 28(DX)(AX*4), DX
	JMP  rows

identity:
	MOVQ AX, R8
	LEAQ 1(AX), R9
	LEAQ 2(AX), R10
	LEAQ 3(AX), R11
	LEAQ 4(AX), R12
	LEAQ 5(AX), R13
	LEAQ 6(AX), BX
	LEAQ 7(AX), DX

rows:
	MOVQ  x_base+48(FP), SI
	IMULQ CX, R8
	ADDQ  SI, R8
	IMULQ CX, R9
	ADDQ  SI, R9
	IMULQ CX, R10
	ADDQ  SI, R10
	IMULQ CX, R11
	ADDQ  SI, R11
	IMULQ CX, R12
	ADDQ  SI, R12
	IMULQ CX, R13
	ADDQ  SI, R13
	IMULQ CX, BX
	ADDQ  SI, BX
	IMULQ CX, DX
	ADDQ  SI, DX
	VXORPS Y8, Y8, Y8
	XORQ  SI, SI               // byte offset of the block

block:
	CMPQ    SI, CX
	JGE     store
	VMOVUPS (R8)(SI*1), Y0     // row i: e0 … e7 (one letter per row below)
	VMOVUPS (R9)(SI*1), Y1
	VMOVUPS (R10)(SI*1), Y2
	VMOVUPS (R11)(SI*1), Y3
	VMOVUPS (R12)(SI*1), Y4
	VMOVUPS (R13)(SI*1), Y5
	VMOVUPS (BX)(SI*1), Y6
	VMOVUPS (DX)(SI*1), Y7

	// Interleave row pairs: a0 b0 a1 b1 | a4 b4 a5 b5 and a2 b2 a3 b3 | a6 b6 a7 b7.
	VUNPCKLPS Y1, Y0, Y9
	VUNPCKHPS Y1, Y0, Y0
	VUNPCKLPS Y3, Y2, Y1
	VUNPCKHPS Y3, Y2, Y2
	VUNPCKLPS Y5, Y4, Y3
	VUNPCKHPS Y5, Y4, Y4
	VUNPCKLPS Y7, Y6, Y5
	VUNPCKHPS Y7, Y6, Y6

	// Four rows per half: a0 b0 c0 d0 | a4 b4 c4 d4 and so on.
	VSHUFPS $0x44, Y1, Y9, Y7  // k 0, 4 of rows a-d
	VSHUFPS $0xee, Y1, Y9, Y9  // k 1, 5
	VSHUFPS $0x44, Y2, Y0, Y1  // k 2, 6
	VSHUFPS $0xee, Y2, Y0, Y0  // k 3, 7
	VSHUFPS $0x44, Y5, Y3, Y2  // k 0, 4 of rows e-h
	VSHUFPS $0xee, Y5, Y3, Y3  // k 1, 5
	VSHUFPS $0x44, Y6, Y4, Y5  // k 2, 6
	VSHUFPS $0xee, Y6, Y4, Y4  // k 3, 7

	// Whole columns: the low halves give k 0-3, the high halves k 4-7.
	VPERM2F128 $0x20, Y2, Y7, Y10
	VPERM2F128 $0x20, Y3, Y9, Y11
	VPERM2F128 $0x20, Y5, Y1, Y12
	VPERM2F128 $0x20, Y4, Y0, Y13
	VPERM2F128 $0x31, Y2, Y7, Y7
	VPERM2F128 $0x31, Y3, Y9, Y9
	VPERM2F128 $0x31, Y5, Y1, Y1
	VPERM2F128 $0x31, Y4, Y0, Y0

	VBROADCASTSS 0(DI)(SI*1), Y14
	VMULPS       Y14, Y10, Y10
	VADDPS       Y10, Y8, Y8
	VBROADCASTSS 4(DI)(SI*1), Y15
	VMULPS       Y15, Y11, Y11
	VADDPS       Y11, Y8, Y8
	VBROADCASTSS 8(DI)(SI*1), Y14
	VMULPS       Y14, Y12, Y12
	VADDPS       Y12, Y8, Y8
	VBROADCASTSS 12(DI)(SI*1), Y15
	VMULPS       Y15, Y13, Y13
	VADDPS       Y13, Y8, Y8
	VBROADCASTSS 16(DI)(SI*1), Y14
	VMULPS       Y14, Y7, Y7
	VADDPS       Y7, Y8, Y8
	VBROADCASTSS 20(DI)(SI*1), Y15
	VMULPS       Y15, Y9, Y9
	VADDPS       Y9, Y8, Y8
	VBROADCASTSS 24(DI)(SI*1), Y14
	VMULPS       Y14, Y1, Y1
	VADDPS       Y1, Y8, Y8
	VBROADCASTSS 28(DI)(SI*1), Y15
	VMULPS       Y15, Y0, Y0
	VADDPS       Y0, Y8, Y8
	ADDQ         $32, SI
	JMP          block

store:
	MOVQ    out_base+0(FP), SI
	MOVQ    n+104(FP), R8
	SUBQ    AX, R8             // rows left, counting this group's
	CMPQ    R8, $8
	JLT     partial
	VMOVUPS Y8, (SI)(AX*4)
	ADDQ    $8, AX
	JMP     group

partial:
	NEGQ       R8
	LEAQ       dotRowsMask<>+32(SB), R9
	VMOVUPS    (R9)(R8*4), Y0  // all ones in the first n−t lanes
	VMASKMOVPS Y8, Y0, (SI)(AX*4)
	JMP        done

rest:
	MOVQ    n+104(FP), SI
	CMPQ    AX, SI
	JGE     done
	DECQ    SI                 // the last row: lane i reads row min(t+i, n−1)
	MOVQ    AX, R8
	LEAQ    1(AX), R9
	CMPQ    R9, SI
	CMOVQGT SI, R9
	LEAQ    2(AX), R10
	CMPQ    R10, SI
	CMOVQGT SI, R10
	LEAQ    3(AX), R11
	CMPQ    R11, SI
	CMOVQGT SI, R11
	LEAQ    4(AX), R12
	CMPQ    R12, SI
	CMOVQGT SI, R12
	LEAQ    5(AX), R13
	CMPQ    R13, SI
	CMOVQGT SI, R13
	LEAQ    6(AX), BX
	CMPQ    BX, SI
	CMOVQGT SI, BX
	LEAQ    7(AX), DX
	CMPQ    DX, SI
	CMOVQGT SI, DX
	MOVQ    idx_base+80(FP), SI
	TESTQ   SI, SI
	JEQ     rows
	MOVLQSX (SI)(R8*4), R8
	MOVLQSX (SI)(R9*4), R9
	MOVLQSX (SI)(R10*4), R10
	MOVLQSX (SI)(R11*4), R11
	MOVLQSX (SI)(R12*4), R12
	MOVLQSX (SI)(R13*4), R13
	MOVLQSX (SI)(BX*4), BX
	MOVLQSX (SI)(DX*4), DX
	JMP     rows

done:
	VZEROUPPER
	RET

portable:
	JMP ·dotRowsGo(SB)

// Exp's constants (exp.go, and math/exp_amd64.s, whose non-FMA path the
// kernel is), four copies each so that the AVX body can take a 32-byte
// memory operand; the AVX-512 body broadcasts the first copy.
#define EXPC(off, v) \
	DATA expc<>+(off)(SB)/8, $v    \
	DATA expc<>+(off+8)(SB)/8, $v  \
	DATA expc<>+(off+16)(SB)/8, $v \
	DATA expc<>+(off+24)(SB)/8, $v

EXPC(0, 1.4426950408889634073599246810018920)      // log2(e)
EXPC(32, 0.69314718055966295651160180568695068359375) // ln 2, upper half
EXPC(64, 0.28235290563031577122588448175013436025525412068e-12) // ln 2, lower half
EXPC(96, 0.0625)
EXPC(128, 2.4801587301587301587e-5) // 1/8!
EXPC(160, 1.9841269841269841270e-4) // 1/7!
EXPC(192, 1.3888888888888888889e-3) // 1/6!
EXPC(224, 8.3333333333333333333e-3) // 1/5!
EXPC(256, 4.1666666666666666667e-2) // 1/4!
EXPC(288, 1.6666666666666666667e-1) // 1/3!
EXPC(320, 0.5)
EXPC(352, 1.0)
EXPC(384, 2.0)
EXPC(416, -708.0) // the kernel's range
EXPC(448, 709.0)
GLOBL expc<>(SB), RODATA|NOPTR, $480

// EXP8 replaces the eight float64s in x by their exponentials, each lane
// the arithmetic of Exp (exp.go) for an x in [−708, 709], in four stages.
// EXPREDUCE: k = x·log2(e) rounded to nearest even (VCVTPD2DQ under the
// default MXCSR, as CVTSD2SL) into yk, and r = (x − k·ln2Hi − k·ln2Lo)/16
// into x. EXPPOLY: y = r·p(r), the Taylor polynomial in Horner form.
// EXPDOUBLE: four y = y·(y+2), then y+1. EXPSCALE: 2^k, built as
// (k << 52) + bits(1.0) in the integer unit, times y. Z16-Z28 hold the
// constants and Z29-Z30 the range (EXPBAD); p and t are scratch, and k is
// the ZMM register whose YMM half is yk. Each stage is one dependency chain, so the main loop runs every
// stage for four blocks before the next: four chains in flight.
#define EXPREDUCE(x, p, t, yk) \
	VMULPD    Z16, x, p \
	VCVTPD2DQ p, yk     \
	VCVTDQ2PD yk, p     \
	VMULPD    Z17, p, t \
	VSUBPD    t, x, x   \
	VMULPD    Z18, p, t \
	VSUBPD    t, x, x   \
	VMULPD    Z19, x, x

#define EXPPOLY(x, p) \
	VMULPD Z20, x, p \
	VADDPD Z21, p, p \
	VMULPD x, p, p   \
	VADDPD Z22, p, p \
	VMULPD x, p, p   \
	VADDPD Z23, p, p \
	VMULPD x, p, p   \
	VADDPD Z24, p, p \
	VMULPD x, p, p   \
	VADDPD Z25, p, p \
	VMULPD x, p, p   \
	VADDPD Z26, p, p \
	VMULPD x, p, p   \
	VADDPD Z27, p, p \
	VMULPD p, x, x

#define EXPDOUBLE(x, p) \
	VADDPD Z28, x, p \
	VMULPD p, x, x   \
	VADDPD Z28, x, p \
	VMULPD p, x, x   \
	VADDPD Z28, x, p \
	VMULPD p, x, x   \
	VADDPD Z28, x, p \
	VMULPD p, x, x   \
	VADDPD Z27, x, x

#define EXPSCALE(x, k, yk) \
	VPMOVSXDQ yk, k     \
	VPSLLQ    $52, k, k \
	VPADDQ    Z27, k, k \
	VMULPD    k, x, x

#define EXP8(x, p, t, k, yk) \
	EXPREDUCE(x, p, t, yk) \
	EXPPOLY(x, p)          \
	EXPDOUBLE(x, p)        \
	EXPSCALE(x, k, yk)

// EXPBAD sets the flags for JNE when a lane of x lies outside [−708, 709] or
// is NaN (the unordered NLE_UQ and NGE_UQ compares).
#define EXPBAD(x) \
	VCMPPD   $0x16, Z30, x, K1 \
	VCMPPD   $0x19, Z29, x, K2 \
	KORTESTW K1, K2

// EXP4 is EXP8 in four lanes of YMM with the constants as memory operands.
// AVX1 has no 256-bit integer ops, so 2^k is built in XMM halves: each k
// shifted to the top of its dword (xk), interleaved with zero dwords into
// two pairs of qwords (xk, xp), bits(1.0) added to each and the halves
// joined in k.
#define EXP4(x, p, t, k, xp, xt, xk) \
	VMULPD      expc<>+0(SB), x, p   \
	VCVTPD2DQY  p, xk                \
	VCVTDQ2PD   xk, p                \
	VMULPD      expc<>+32(SB), p, t  \
	VSUBPD      t, x, x              \
	VMULPD      expc<>+64(SB), p, t  \
	VSUBPD      t, x, x              \
	VMULPD      expc<>+96(SB), x, x  \
	VMULPD      expc<>+128(SB), x, p \
	VADDPD      expc<>+160(SB), p, p \
	VMULPD      x, p, p              \
	VADDPD      expc<>+192(SB), p, p \
	VMULPD      x, p, p              \
	VADDPD      expc<>+224(SB), p, p \
	VMULPD      x, p, p              \
	VADDPD      expc<>+256(SB), p, p \
	VMULPD      x, p, p              \
	VADDPD      expc<>+288(SB), p, p \
	VMULPD      x, p, p              \
	VADDPD      expc<>+320(SB), p, p \
	VMULPD      x, p, p              \
	VADDPD      expc<>+352(SB), p, p \
	VMULPD      p, x, x              \
	VADDPD      expc<>+384(SB), x, p \
	VMULPD      p, x, x              \
	VADDPD      expc<>+384(SB), x, p \
	VMULPD      p, x, x              \
	VADDPD      expc<>+384(SB), x, p \
	VMULPD      p, x, x              \
	VADDPD      expc<>+384(SB), x, p \
	VMULPD      p, x, x              \
	VADDPD      expc<>+352(SB), x, x \
	VPSLLD      $20, xk, xk          \
	VPXOR       xt, xt, xt           \
	VPUNPCKHDQ  xk, xt, xp           \
	VPUNPCKLDQ  xk, xt, xk           \
	VPADDQ      expc<>+352(SB), xp, xp \
	VPADDQ      expc<>+352(SB), xk, xk \
	VINSERTF128 $1, xp, k, k         \
	VMULPD      k, x, x

// func expKernel(x []float64) (done int)
//
// In place, one block of lanes at a time, in element order: eight with
// AVX-512 (the last one to seven through the opmask K3), four with AVX (the
// last one to three are left to the caller). Before it computes a block the
// kernel compares every lane with [−708, 709] (NLE_UQ / NGE_UQ, so a NaN
// fails too) and returns at the first block outside it, storing nothing of
// that block; done counts the elements before it.
TEXT ·expKernel(SB), NOSPLIT, $0-32
	CMPB ·useAVX(SB), $0
	JEQ  portable
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), R9
	XORQ AX, AX
	CMPB ·useAVX512(SB), $0
	JEQ  four

	VBROADCASTSD expc<>+0(SB), Z16
	VBROADCASTSD expc<>+32(SB), Z17
	VBROADCASTSD expc<>+64(SB), Z18
	VBROADCASTSD expc<>+96(SB), Z19
	VBROADCASTSD expc<>+128(SB), Z20
	VBROADCASTSD expc<>+160(SB), Z21
	VBROADCASTSD expc<>+192(SB), Z22
	VBROADCASTSD expc<>+224(SB), Z23
	VBROADCASTSD expc<>+256(SB), Z24
	VBROADCASTSD expc<>+288(SB), Z25
	VBROADCASTSD expc<>+320(SB), Z26
	VBROADCASTSD expc<>+352(SB), Z27
	VBROADCASTSD expc<>+384(SB), Z28
	VBROADCASTSD expc<>+416(SB), Z29
	VBROADCASTSD expc<>+448(SB), Z30

thirtytwo:
	LEAQ      32(AX), DX
	CMPQ      DX, R9
	JGT       eight
	VMOVUPD   (SI)(AX*8), Z0
	VMOVUPD   64(SI)(AX*8), Z4
	VMOVUPD   128(SI)(AX*8), Z8
	VMOVUPD   192(SI)(AX*8), Z12
	VCMPPD    $0x16, Z30, Z0, K1
	VCMPPD    $0x19, Z29, Z0, K2
	KORW      K1, K2, K3
	VCMPPD    $0x16, Z30, Z4, K1
	VCMPPD    $0x19, Z29, Z4, K2
	KORW      K1, K2, K4
	KORW      K3, K4, K3
	VCMPPD    $0x16, Z30, Z8, K1
	VCMPPD    $0x19, Z29, Z8, K2
	KORW      K1, K2, K4
	KORW      K3, K4, K3
	VCMPPD    $0x16, Z30, Z12, K1
	VCMPPD    $0x19, Z29, Z12, K2
	KORW      K1, K2, K4
	KORTESTW  K3, K4
	JNE       eight                // the blocks one at a time, up to the bad one
	EXPREDUCE(Z0, Z1, Z2, Y3)
	EXPREDUCE(Z4, Z5, Z6, Y7)
	EXPREDUCE(Z8, Z9, Z10, Y11)
	EXPREDUCE(Z12, Z13, Z14, Y15)
	EXPPOLY(Z0, Z1)
	EXPPOLY(Z4, Z5)
	EXPPOLY(Z8, Z9)
	EXPPOLY(Z12, Z13)
	EXPDOUBLE(Z0, Z1)
	EXPDOUBLE(Z4, Z5)
	EXPDOUBLE(Z8, Z9)
	EXPDOUBLE(Z12, Z13)
	EXPSCALE(Z0, Z3, Y3)
	EXPSCALE(Z4, Z7, Y7)
	EXPSCALE(Z8, Z11, Y11)
	EXPSCALE(Z12, Z15, Y15)
	VMOVUPD   Z0, (SI)(AX*8)
	VMOVUPD   Z4, 64(SI)(AX*8)
	VMOVUPD   Z8, 128(SI)(AX*8)
	VMOVUPD   Z12, 192(SI)(AX*8)
	MOVQ      DX, AX
	JMP       thirtytwo

eight:
	LEAQ      8(AX), DX
	CMPQ      DX, R9
	JGT       masked
	VMOVUPD   (SI)(AX*8), Z0
	EXPBAD(Z0)
	JNE       done
	EXP8(Z0, Z1, Z2, Z3, Y3)
	VMOVUPD   Z0, (SI)(AX*8)
	MOVQ      DX, AX
	JMP       eight

masked:
	MOVQ      R9, CX
	SUBQ      AX, CX
	JEQ       done
	MOVL      $1, BX
	SHLL      CX, BX
	DECL      BX
	KMOVW     BX, K3
	VMOVUPD.Z (SI)(AX*8), K3, Z0   // the lanes past the end read +0
	EXPBAD(Z0)
	JNE       done
	EXP8(Z0, Z1, Z2, Z3, Y3)
	VMOVUPD   Z0, K3, (SI)(AX*8)
	MOVQ      R9, AX
	JMP       done

four:
	LEAQ      4(AX), DX
	CMPQ      DX, R9
	JGT       done
	VMOVUPD   (SI)(AX*8), Y0
	VCMPPD    $0x16, expc<>+448(SB), Y0, Y1
	VCMPPD    $0x19, expc<>+416(SB), Y0, Y2
	VORPD     Y1, Y2, Y1
	VMOVMSKPD Y1, CX
	TESTL     CX, CX
	JNE       done
	EXP4(Y0, Y1, Y2, Y3, X1, X2, X3)
	VMOVUPD   Y0, (SI)(AX*8)
	MOVQ      DX, AX
	JMP       four

done:
	VZEROUPPER
	MOVQ AX, done+24(FP)
	RET

portable:
	JMP ·expGo(SB)
