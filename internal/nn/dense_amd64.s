#include "textflag.h"

// ROW8 multiplies one broadcast input x[r][i] into row r's eight
// outputs: acc += x*w[o:o+8], with t as scratch. As in ROW below, the
// product and the sum are separate instructions, x is the product's
// first source and the accumulator the sum's.
#define ROW8(addr, acc, t) \
	VBROADCASTSD addr, t; \
	VMULPD       Z8, t, t; \
	VADDPD       t, acc, acc

// RELU8 is RELU for one ZMM accumulator, with Z9 zero.
#define RELU8(acc) VMAXPD acc, Z9, acc

// func gemm8x8(x *float64, rows, in int, wp, b *float64, nout, ldd int, dst *float64, relu bool)
//
// Register use: AX walks the current 8-row block of x (rows 0..7 are 0,
// 1, 2, 3, 4, 5, 6 and 7 times R9 bytes on from it: R9, BX, R12 and R14
// hold one, three, five and seven x rows in bytes), DI points at the
// block's dst row 0, R10 and R11 walk the packed weights and the bias,
// DX is the output block's column in dst row 0, SI counts the inputs
// of the dot product, R13 is one dst row in bytes. Z0..Z7 hold the 8×8
// block, one row each; Z8 holds the weights of one input, Z16..Z23 are
// scratch and Z9 stays zero.
TEXT ·gemm8x8(SB), NOSPLIT, $0-65
	MOVQ   x+0(FP), AX
	MOVQ   rows+8(FP), R8
	MOVQ   in+16(FP), R9
	SHLQ   $3, R9
	LEAQ   (R9)(R9*2), BX
	LEAQ   (R9)(R9*4), R12
	LEAQ   (BX)(R9*4), R14
	MOVQ   ldd+48(FP), R13
	SHLQ   $3, R13
	MOVQ   dst+56(FP), DI
	VPXORQ Z9, Z9, Z9

rowblock8:
	MOVQ wp+24(FP), R10
	MOVQ b+32(FP), R11
	MOVQ DI, DX
	MOVQ nout+40(FP), CX
	SHRQ $3, CX

outblock8:
	VMOVUPD (R11), Z0
	VMOVAPD Z0, Z1
	VMOVAPD Z0, Z2
	VMOVAPD Z0, Z3
	VMOVAPD Z0, Z4
	VMOVAPD Z0, Z5
	VMOVAPD Z0, Z6
	VMOVAPD Z0, Z7
	MOVQ    in+16(FP), SI

dot8:
	VMOVUPD (R10), Z8
	ROW8((AX), Z0, Z16)
	ROW8((AX)(R9*1), Z1, Z17)
	ROW8((AX)(R9*2), Z2, Z18)
	ROW8((AX)(BX*1), Z3, Z19)
	ROW8((AX)(R9*4), Z4, Z20)
	ROW8((AX)(R12*1), Z5, Z21)
	ROW8((AX)(BX*2), Z6, Z22)
	ROW8((AX)(R14*1), Z7, Z23)
	ADDQ    $8, AX
	ADDQ    $64, R10
	DECQ    SI
	JNZ     dot8

	// Back to input 0 of the block's row 0 for the next output block.
	SUBQ R9, AX
	CMPB relu+64(FP), $0
	JEQ  store8
	RELU8(Z0)
	RELU8(Z1)
	RELU8(Z2)
	RELU8(Z3)
	RELU8(Z4)
	RELU8(Z5)
	RELU8(Z6)
	RELU8(Z7)

store8:
	VMOVUPD Z0, (DX)
	VMOVUPD Z1, (DX)(R13*1)
	VMOVUPD Z2, (DX)(R13*2)
	LEAQ    (DX)(R13*2), SI
	VMOVUPD Z3, (SI)(R13*1)
	VMOVUPD Z4, (DX)(R13*4)
	LEAQ    (DX)(R13*4), SI
	VMOVUPD Z5, (SI)(R13*1)
	VMOVUPD Z6, (SI)(R13*2)
	LEAQ    (SI)(R13*2), SI
	VMOVUPD Z7, (SI)(R13*1)
	ADDQ    $64, R11
	ADDQ    $64, DX
	DECQ    CX
	JNZ     outblock8

	LEAQ (AX)(R9*8), AX
	LEAQ (DI)(R13*8), DI
	SUBQ $8, R8
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

// func cpuHasAVX() bool
//
// CPUID leaf 1 ECX must report AVX (bit 28) and OSXSAVE (bit 27), and
// XCR0 must show the OS saving both XMM (bit 1) and YMM (bit 2) state.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func cpuHasAVX512() bool
//
// Everything cpuHasAVX checks, then CPUID leaf 7 (when the CPU has it)
// EBX must report AVX-512F (bit 16), and XCR0 must show the OS saving
// the opmask registers, the upper halves of ZMM0..15 and ZMM16..31
// (bits 5, 6 and 7) as well as XMM and YMM state: mask 0xE6.
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLT  no512
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no512
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL  $16, BX
	JCC  no512
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no512
	MOVB $1, ret+0(FP)
	RET

no512:
	MOVB $0, ret+0(FP)
	RET
