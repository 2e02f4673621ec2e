#include "textflag.h"

// ROW multiplies one broadcast input x[r][i] into both output pairs of
// row r: lo += x*w[o:o+2], hi += x*w[o+2:o+4]. The product and the sum
// are separate instructions, each rounded, exactly as the scalar
// s += w*x.
#define ROW(addr, lo, hi) \
	MOVSD    addr, X10; \
	UNPCKLPD X10, X10; \
	MOVAPD   X10, X11; \
	MULPD    X8, X11; \
	ADDPD    X11, lo; \
	MULPD    X9, X10; \
	ADDPD    X10, hi

// RELU replaces acc by (0 > acc) ? 0 : acc, which is Go's
// `if s < 0 { s = 0 }`: -0 and NaN pass through unchanged. MAXPD returns
// its source operand unless the destination is greater, so the zero
// must be the destination.
#define RELU(acc) \
	MOVAPD X14, X8; \
	MAXPD  acc, X8; \
	MOVAPD X8, acc

// func gemm4x4(x *float64, rows, in int, wp, b *float64, nout, ldd int, dst *float64, relu bool)
//
// Register use: SI/DI point at the current 4-row block of x/dst, R10 and
// R11 walk the packed weights and the bias, DX is the output block's
// column in dst row 0, AX walks x row 0 inside the dot product, R9 and
// BX are one and three x rows in bytes, R13 is one dst row in bytes.
// X0..X7 hold the 4×4 block, two outputs per register: row r, outputs
// o,o+1 in X(2r) and o+2,o+3 in X(2r+1). X14 stays zero.
TEXT ·gemm4x4(SB), NOSPLIT, $0-65
	MOVQ  x+0(FP), SI
	MOVQ  rows+8(FP), R8
	MOVQ  in+16(FP), R9
	SHLQ  $3, R9
	LEAQ  (R9)(R9*2), BX
	MOVQ  ldd+48(FP), R13
	SHLQ  $3, R13
	MOVQ  dst+56(FP), DI
	XORPD X14, X14

rowblock:
	MOVQ wp+24(FP), R10
	MOVQ b+32(FP), R11
	MOVQ DI, DX
	MOVQ nout+40(FP), CX
	SHRQ $2, CX

outblock:
	MOVUPD (R11), X0
	MOVUPD 16(R11), X1
	MOVAPD X0, X2
	MOVAPD X1, X3
	MOVAPD X0, X4
	MOVAPD X1, X5
	MOVAPD X0, X6
	MOVAPD X1, X7
	MOVQ   SI, AX
	MOVQ   in+16(FP), R12

dot:
	MOVUPD (R10), X8
	MOVUPD 16(R10), X9
	ROW((AX), X0, X1)
	ROW((AX)(R9*1), X2, X3)
	ROW((AX)(R9*2), X4, X5)
	ROW((AX)(BX*1), X6, X7)
	ADDQ   $8, AX
	ADDQ   $32, R10
	DECQ   R12
	JNZ    dot

	CMPB relu+64(FP), $0
	JEQ  store
	RELU(X0)
	RELU(X1)
	RELU(X2)
	RELU(X3)
	RELU(X4)
	RELU(X5)
	RELU(X6)
	RELU(X7)

store:
	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, (DX)(R13*1)
	MOVUPD X3, 16(DX)(R13*1)
	MOVUPD X4, (DX)(R13*2)
	MOVUPD X5, 16(DX)(R13*2)
	LEAQ   (DX)(R13*2), AX
	MOVUPD X6, (AX)(R13*1)
	MOVUPD X7, 16(AX)(R13*1)
	ADDQ   $32, R11
	ADDQ   $32, DX
	DECQ   CX
	JNZ    outblock

	LEAQ (SI)(R9*4), SI
	LEAQ (DI)(R13*4), DI
	SUBQ $4, R8
	JNZ  rowblock
	RET
