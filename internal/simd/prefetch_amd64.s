//go:build !purego

#include "textflag.h"

// func prefetchRangeT0(p unsafe.Pointer, bytes int64)
TEXT ·prefetchRangeT0(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ bytes+8(FP), CX

loop:
	CMPQ CX, $0
	JLE  done
	PREFETCHT0 (AX)
	ADDQ $64, AX
	SUBQ $64, CX
	JMP  loop

done:
	RET
