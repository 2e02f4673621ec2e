#include "textflag.h"

// func HasAVX() bool
//
// CPUID leaf 1 ECX must report AVX (bit 28) and OSXSAVE (bit 27), and
// XCR0 must show the OS saving both XMM (bit 1) and YMM (bit 2) state.
TEXT ·HasAVX(SB), NOSPLIT, $0-1
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

// func HasAVX512() bool
//
// Everything HasAVX checks, then CPUID leaf 7 (when the CPU has it)
// EBX must report AVX-512F (bit 16), and XCR0 must show the OS saving
// the opmask registers, the upper halves of ZMM0..15 and ZMM16..31
// (bits 5, 6 and 7) as well as XMM and YMM state: mask 0xE6.
TEXT ·HasAVX512(SB), NOSPLIT, $0-1
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
