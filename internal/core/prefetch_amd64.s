#include "textflag.h"

// The span kernel's prefetches. Each index is a uint32, zero-extended by
// MOVL, and selects the 4-byte word at words_base + 4*index.

// func prefetchEdges(words []atomic.Uint32, edges []Edge)
TEXT ·prefetchEdges(SB), NOSPLIT, $0-48
	MOVQ	words_base+0(FP), AX
	MOVQ	edges_base+24(FP), SI
	MOVQ	edges_len+32(FP), CX
	TESTQ	CX, CX
	JZ	done

loop:
	MOVL	0(SI), DX  // Edge.X
	PREFETCHT0	(AX)(DX*4)
	MOVL	4(SI), DX  // Edge.Y
	PREFETCHT0	(AX)(DX*4)
	ADDQ	$8, SI
	DECQ	CX
	JNZ	loop

done:
	RET

// func prefetchWords(words []atomic.Uint32, idx []uint32)
TEXT ·prefetchWords(SB), NOSPLIT, $0-48
	MOVQ	words_base+0(FP), AX
	MOVQ	idx_base+24(FP), SI
	MOVQ	idx_len+32(FP), CX
	TESTQ	CX, CX
	JZ	done

loop:
	MOVL	0(SI), DX
	PREFETCHT0	(AX)(DX*4)
	ADDQ	$4, SI
	DECQ	CX
	JNZ	loop

done:
	RET
