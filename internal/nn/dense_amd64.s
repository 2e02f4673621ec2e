#include "textflag.h"

// ROW8 multiplies one broadcast input x[r][i] into row r's eight
// outputs: acc += x*w[o:o+8], with Z8 holding the weights and t as
// scratch. As in ROW below, the product and the sum are separate
// instructions, x is the product's first source and the accumulator
// the sum's.
#define ROW8(addr, acc, t) \
	VBROADCASTSD addr, t; \
	VMULPD       Z8, t, t; \
	VADDPD       t, acc, acc

// STEP8 adds one input's products to all eight rows of the block: p
// and p4 point at the input in rows 0 and 4, d is a byte displacement
// from both, and Z8 holds the input's eight weights.
#define STEP8(p, p4, d) \
	ROW8(d(p), Z0, Z16); \
	ROW8(d(p)(R9*1), Z1, Z17); \
	ROW8(d(p)(R9*2), Z2, Z18); \
	ROW8(d(p)(BX*1), Z3, Z19); \
	ROW8(d(p4), Z4, Z20); \
	ROW8(d(p4)(R9*1), Z5, Z21); \
	ROW8(d(p)(BX*2), Z6, Z22); \
	ROW8(d(p4)(BX*1), Z7, Z23)

// FULL8 is input k of a group of eight whose mask byte is full: R13
// and DI point at the group's first input in rows 0 and 4, R14 at its
// weights.
#define FULL8(k) \
	VMOVUPD (64*k)(R14), Z8; \
	STEP8(R13, DI, (8*k))

// RELU8 is RELU for one ZMM accumulator, with Z9 zero.
#define RELU8(acc) VMAXPD acc, Z9, acc

// func maskGemm8x8(x *float64, rows, in int, wp, b *float64, nout, ldd int, dst *float64, relu bool, xm *byte, xms int, dm *byte, dms int)
//
// The masked kernel: the kernel contract over pointers, rows a
// multiple of 8, one ZMM accumulator per row of an 8-row × 8-output
// block. Inputs come in groups of eight, group g holding inputs 8g to
// 8g+7; xm+rb*xms is row block rb's first mask byte, and bit j of its
// byte g is set unless input 8g+j is +0 in all eight rows. A full byte
// runs its eight inputs straight; any other byte runs only its set
// bits, lowest first (BSF, then clearing the lowest bit), so the
// inputs run in ascending order either way. Only the low in%8 bits of
// the last byte are read when in is not a multiple of eight, and a byte
// of exactly those bits runs them straight. After
// ReLU it writes bit j of dm+rb*dms+o/8 for outputs o..o+7: set when
// output o+j has a nonzero bit pattern in any row of the block
// (VPTESTMQ of the eight rows ORed together), so -0 and NaN count as
// nonzero.
//
// Register use: AX is the row block's x row 0, R9 and BX hold one and
// three x rows in bytes, R10 the output block's packed weights, R11
// the valid bits of the last mask byte. Per group of inputs SI walks
// the mask bytes, CX counts the groups left, R13 and R14 walk x row 0
// and the weights, R12 holds the bits left to run (low8 walks the
// weights with it) and R8 the offset of the current input or the
// inputs left; DX and DI point at it in rows 0 and 4. Z0..Z7
// hold the 8×8 block, one row each; Z8 holds one input's weights,
// Z16..Z23 are scratch and Z9 stays zero. The locals keep what
// changes per row block and per output block.
TEXT ·maskGemm8x8(SB), NOSPLIT, $64-104
	MOVQ   x+0(FP), AX
	MOVQ   in+16(FP), R9
	SHLQ   $3, R9
	LEAQ   (R9)(R9*2), BX
	MOVL   $0xFF, R11
	MOVQ   in+16(FP), CX
	ANDQ   $7, CX
	JZ     rows8
	MOVL   $1, R11
	SHLL   CX, R11
	DECL   R11

rows8:
	MOVQ   rows+8(FP), R8
	MOVQ   R8, left-8(SP)
	MOVQ   dst+56(FP), R8
	MOVQ   R8, drow-16(SP)
	MOVQ   xm+72(FP), R8
	MOVQ   R8, xmrow-24(SP)
	MOVQ   dm+88(FP), R8
	MOVQ   R8, dmrow-32(SP)
	VPXORQ Z9, Z9, Z9

rowblock8:
	MOVQ wp+24(FP), R10
	MOVQ b+32(FP), R8
	MOVQ R8, bias-40(SP)
	MOVQ drow-16(SP), R8
	MOVQ R8, dcol-48(SP)
	MOVQ dmrow-32(SP), R8
	MOVQ R8, dmcol-56(SP)
	MOVQ nout+40(FP), R8
	SHRQ $3, R8
	MOVQ R8, oleft-64(SP)

outblock8:
	MOVQ    bias-40(SP), R8
	VMOVUPD (R8), Z0
	ADDQ    $64, R8
	MOVQ    R8, bias-40(SP)
	VMOVAPD Z0, Z1
	VMOVAPD Z0, Z2
	VMOVAPD Z0, Z3
	VMOVAPD Z0, Z4
	VMOVAPD Z0, Z5
	VMOVAPD Z0, Z6
	VMOVAPD Z0, Z7
	MOVQ    xmrow-24(SP), SI
	MOVQ    AX, R13
	MOVQ    R10, R14
	MOVQ    in+16(FP), CX
	ADDQ    $7, CX
	SHRQ    $3, CX

group8:
	MOVBLZX (SI), R12
	CMPQ    CX, $1
	JNE     walk8
	ANDL    R11, R12

walk8:
	CMPL  R12, $0xFF
	JEQ   full8
	CMPL  R12, R11
	JEQ   low8
	TESTL R12, R12
	JZ    next8

bit8:
	BSFL    R12, R8
	SHLL    $3, R8
	LEAQ    (R13)(R8*1), DX
	LEAQ    (DX)(R9*4), DI
	VMOVUPD (R14)(R8*8), Z8
	STEP8(DX, DI, 0)
	LEAL    -1(R12), R8
	ANDL    R8, R12
	JNZ     bit8
	JMP     next8

full8:
	LEAQ (R13)(R9*4), DI
	FULL8(0)
	FULL8(1)
	FULL8(2)
	FULL8(3)
	FULL8(4)
	FULL8(5)
	FULL8(6)
	FULL8(7)

	JMP next8

// A byte holding exactly the low in%8 bits, as the last byte of an
// all-ones mask does, runs those inputs straight too.
low8:
	MOVQ in+16(FP), R8
	ANDQ $7, R8
	MOVQ R13, DX
	LEAQ (R13)(R9*4), DI
	MOVQ R14, R12

lowstep8:
	VMOVUPD (R12), Z8
	STEP8(DX, DI, 0)
	ADDQ    $8, DX
	ADDQ    $8, DI
	ADDQ    $64, R12
	DECQ    R8
	JNZ     lowstep8

next8:
	INCQ SI
	ADDQ $64, R13
	ADDQ $512, R14
	DECQ CX
	JNZ  group8

	CMPB relu+64(FP), $0
	JEQ  mask8
	RELU8(Z0)
	RELU8(Z1)
	RELU8(Z2)
	RELU8(Z3)
	RELU8(Z4)
	RELU8(Z5)
	RELU8(Z6)
	RELU8(Z7)

mask8:
	VPORQ    Z0, Z1, Z16
	VPORQ    Z2, Z3, Z17
	VPORQ    Z4, Z5, Z18
	VPORQ    Z6, Z7, Z19
	VPORQ    Z16, Z17, Z16
	VPORQ    Z18, Z19, Z18
	VPORQ    Z16, Z18, Z16
	VPTESTMQ Z16, Z16, K1
	KMOVW    K1, R12
	MOVQ     dmcol-56(SP), R8
	MOVB     R12, (R8)
	INCQ     R8
	MOVQ     R8, dmcol-56(SP)

	MOVQ    dcol-48(SP), DX
	MOVQ    ldd+48(FP), R8
	SHLQ    $3, R8
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, (DX)(R8*1)
	VMOVUPD Z2, (DX)(R8*2)
	LEAQ    (DX)(R8*2), DI
	VMOVUPD Z3, (DI)(R8*1)
	VMOVUPD Z4, (DX)(R8*4)
	LEAQ    (DX)(R8*4), DI
	VMOVUPD Z5, (DI)(R8*1)
	VMOVUPD Z6, (DI)(R8*2)
	LEAQ    (DI)(R8*2), DI
	VMOVUPD Z7, (DI)(R8*1)
	ADDQ    $64, DX
	MOVQ    DX, dcol-48(SP)

	// On to the next output block's packed weights, in*8 further on.
	MOVQ in+16(FP), R8
	SHLQ $6, R8
	ADDQ R8, R10
	DECQ oleft-64(SP)
	JNZ  outblock8

	LEAQ (AX)(R9*8), AX
	MOVQ ldd+48(FP), R8
	SHLQ $6, R8
	ADDQ R8, drow-16(SP)
	MOVQ xms+80(FP), R8
	ADDQ R8, xmrow-24(SP)
	MOVQ dms+96(FP), R8
	ADDQ R8, dmrow-32(SP)
	SUBQ $8, left-8(SP)
	JNZ  rowblock8
	VZEROUPPER
	RET

// ROW multiplies one broadcast input x[r][i] into both output quads of
// row r: lo += x*w[o:o+4], hi += x*w[o+4:o+8]. The product and the sum
// are separate instructions, each rounded, exactly as the scalar
// s += w*x. x is the product's first source and the accumulator the
// sum's; when both sources are NaN, x86 returns the first one.
#define ROW(addr, lo, hi) \
	VBROADCASTSD addr, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, lo, lo; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y12, hi, hi

// RELU replaces acc by (0 > acc) ? 0 : acc, which is Go's
// `if s < 0 { s = 0 }`: -0 and NaN pass through unchanged. VMAXPD
// returns its second source unless the first is greater, so the zero
// must be the first source.
#define RELU(acc) VMAXPD acc, Y14, acc

// func gemm4x8(x *float64, rows, in int, wp, b *float64, nout, ldd int, dst *float64, relu bool)
//
// Register use: SI/DI point at the current 4-row block of x/dst, R10 and
// R11 walk the packed weights and the bias, DX is the output block's
// column in dst row 0, AX walks x row 0 inside the dot product, R9 and
// BX are one and three x rows in bytes, R13 is one dst row in bytes.
// Y0..Y7 hold the 4×8 block, four outputs per register: row r, outputs
// o..o+3 in Y(2r) and o+4..o+7 in Y(2r+1). Y14 stays zero.
TEXT ·gemm4x8(SB), NOSPLIT, $0-65
	MOVQ   x+0(FP), SI
	MOVQ   rows+8(FP), R8
	MOVQ   in+16(FP), R9
	SHLQ   $3, R9
	LEAQ   (R9)(R9*2), BX
	MOVQ   ldd+48(FP), R13
	SHLQ   $3, R13
	MOVQ   dst+56(FP), DI
	VXORPD Y14, Y14, Y14

rowblock:
	MOVQ wp+24(FP), R10
	MOVQ b+32(FP), R11
	MOVQ DI, DX
	MOVQ nout+40(FP), CX
	SHRQ $3, CX

outblock:
	VMOVUPD (R11), Y0
	VMOVUPD 32(R11), Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y1, Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y0, Y6
	VMOVAPD Y1, Y7
	MOVQ    SI, AX
	MOVQ    in+16(FP), R12

dot:
	VMOVUPD (R10), Y8
	VMOVUPD 32(R10), Y9
	ROW((AX), Y0, Y1)
	ROW((AX)(R9*1), Y2, Y3)
	ROW((AX)(R9*2), Y4, Y5)
	ROW((AX)(BX*1), Y6, Y7)
	ADDQ    $8, AX
	ADDQ    $64, R10
	DECQ    R12
	JNZ     dot

	CMPB relu+64(FP), $0
	JEQ  store
	RELU(Y0)
	RELU(Y1)
	RELU(Y2)
	RELU(Y3)
	RELU(Y4)
	RELU(Y5)
	RELU(Y6)
	RELU(Y7)

store:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R13*1)
	VMOVUPD Y3, 32(DX)(R13*1)
	VMOVUPD Y4, (DX)(R13*2)
	VMOVUPD Y5, 32(DX)(R13*2)
	LEAQ    (DX)(R13*2), AX
	VMOVUPD Y6, (AX)(R13*1)
	VMOVUPD Y7, 32(AX)(R13*1)
	ADDQ    $64, R11
	ADDQ    $64, DX
	DECQ    CX
	JNZ     outblock

	LEAQ (SI)(R9*4), SI
	LEAQ (DI)(R13*4), DI
	SUBQ $4, R8
	JNZ  rowblock
	VZEROUPPER
	RET
