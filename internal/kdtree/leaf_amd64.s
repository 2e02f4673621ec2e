#include "textflag.h"

// Register use in both kernels: SI, DI and R8 walk the x, y and z
// coordinates, DX the distances, R10 counts the points left, CX is the
// index of the step's first point (the mask shift) and AX collects the
// mask. Z0/Y0..Z2/Y2 hold the query, Z3/Y3 the bound.

// DIST computes one step's squared distances into acc from the
// coordinates loaded into acc, ty and tz: subtract the query, square
// each offset, then (dx² + dy²) + dz², each its own instruction.
#define DIST(acc, ty, tz, qx, qy, qz) \
	VSUBPD qx, acc, acc; \
	VSUBPD qy, ty, ty;   \
	VSUBPD qz, tz, tz;   \
	VMULPD acc, acc, acc; \
	VMULPD ty, ty, ty;   \
	VMULPD tz, tz, tz;   \
	VADDPD ty, acc, acc; \
	VADDPD tz, acc, acc

// STEP8 runs eight lanes under the load mask K1: zeroing loads, the
// distances, a masked store, and the NGT_UQ (predicate 0x1A) compare
// against the bound, whose lane bits are ORed into AX at bit CX.
#define STEP8 \
	VMOVUPD.Z (SI), K1, Z4;        \
	VMOVUPD.Z (DI), K1, Z5;        \
	VMOVUPD.Z (R8), K1, Z6;        \
	DIST(Z4, Z5, Z6, Z0, Z1, Z2);  \
	VMOVUPD   Z4, K1, (DX);        \
	VCMPPD    $0x1A, Z3, Z4, K1, K2; \
	KMOVW     K2, R9;              \
	SHLQ      CX, R9;              \
	ORQ       R9, AX;              \
	ADDQ      $64, SI;             \
	ADDQ      $64, DI;             \
	ADDQ      $64, R8;             \
	ADDQ      $64, DX;             \
	ADDQ      $8, CX

// func scanLeaf8(x, y, z *float64, n int, qx, qy, qz, bound float64, d2 *float64) uint64
TEXT ·scanLeaf8(SB), NOSPLIT, $0-80
	MOVQ         x+0(FP), SI
	MOVQ         y+8(FP), DI
	MOVQ         z+16(FP), R8
	MOVQ         n+24(FP), R10
	VBROADCASTSD qx+32(FP), Z0
	VBROADCASTSD qy+40(FP), Z1
	VBROADCASTSD qz+48(FP), Z2
	VBROADCASTSD bound+56(FP), Z3
	MOVQ         d2+64(FP), DX
	XORQ         AX, AX
	XORQ         CX, CX
	MOVL         $0xff, R9
	KMOVW        R9, K1
	CMPQ         R10, $8
	JLT          tail8

full8:
	STEP8
	SUBQ  $8, R10
	CMPQ  R10, $8
	JGE   full8
	TESTQ R10, R10
	JEQ   done8

tail8:
	// K1 = (1 << R10) - 1 covers the last R10 (1..7) points; CX is
	// borrowed as the shift count and restored.
	MOVQ  CX, R11
	MOVQ  R10, CX
	MOVL  $1, R9
	SHLL  CX, R9
	DECL  R9
	KMOVW R9, K1
	MOVQ  R11, CX
	STEP8

done8:
	MOVQ AX, ret+72(FP)
	VZEROUPPER
	RET

// tail4<> is four all-ones lanes then four zero lanes: the four lanes
// starting at lane 4-r enable the first r of a step.
DATA tail4<>+0(SB)/8, $-1
DATA tail4<>+8(SB)/8, $-1
DATA tail4<>+16(SB)/8, $-1
DATA tail4<>+24(SB)/8, $-1
DATA tail4<>+32(SB)/8, $0
DATA tail4<>+40(SB)/8, $0
DATA tail4<>+48(SB)/8, $0
DATA tail4<>+56(SB)/8, $0
GLOBL tail4<>(SB), RODATA|NOPTR, $64

// FINISH4 stores a four-lane step's distances (the scratch holds
// maxLeaf, so a whole step always fits), ORs its compare lanes, masked
// by the step's valid lanes, into AX at bit CX, and advances to the
// next step. Y7 holds the valid lanes: all four, or the tail's first r.
#define FINISH4 \
	VMOVUPD    Y4, (DX);        \
	VCMPPD     $0x1A, Y3, Y4, Y5; \
	VANDPD     Y7, Y5, Y5;      \
	VMOVMSKPD  Y5, R9;          \
	SHLQ       CX, R9;          \
	ORQ        R9, AX;          \
	ADDQ       $32, SI;         \
	ADDQ       $32, DI;         \
	ADDQ       $32, R8;         \
	ADDQ       $32, DX;         \
	ADDQ       $4, CX

// func scanLeaf4(x, y, z *float64, n int, qx, qy, qz, bound float64, d2 *float64) uint64
TEXT ·scanLeaf4(SB), NOSPLIT, $0-80
	MOVQ         x+0(FP), SI
	MOVQ         y+8(FP), DI
	MOVQ         z+16(FP), R8
	MOVQ         n+24(FP), R10
	VBROADCASTSD qx+32(FP), Y0
	VBROADCASTSD qy+40(FP), Y1
	VBROADCASTSD qz+48(FP), Y2
	VBROADCASTSD bound+56(FP), Y3
	MOVQ         d2+64(FP), DX
	XORQ         AX, AX
	XORQ         CX, CX
	LEAQ         tail4<>(SB), R12
	VMOVUPD      (R12), Y7
	CMPQ         R10, $4
	JLT          tail4

full4:
	VMOVUPD (SI), Y4
	VMOVUPD (DI), Y5
	VMOVUPD (R8), Y6
	DIST(Y4, Y5, Y6, Y0, Y1, Y2)
	FINISH4
	SUBQ    $4, R10
	CMPQ    R10, $4
	JGE     full4
	TESTQ   R10, R10
	JEQ     done4

tail4:
	MOVQ       $4, R11
	SUBQ       R10, R11
	VMOVUPD    (R12)(R11*8), Y7
	VMASKMOVPD (SI), Y7, Y4
	VMASKMOVPD (DI), Y7, Y5
	VMASKMOVPD (R8), Y7, Y6
	DIST(Y4, Y5, Y6, Y0, Y1, Y2)
	FINISH4

done4:
	MOVQ AX, ret+72(FP)
	VZEROUPPER
	RET
