//go:build amd64 && !purego

package simd

import "unsafe"

// HasNT reports that this build can use non-temporal stores for the bin
// flush copies. An NT store goes to memory through a write-combining buffer
// and skips the read-for-ownership a normal store to a cold line costs — but
// only a buffer that collects all 64 bytes of its line leaves as one line
// write; a partly filled one is evicted as several partial writes, which is
// slower than the plain store it replaced. The stores write whole lines only
// when the caller hands NTCopyBytes a line-aligned destination and a
// multiple of 64 bytes, which is what internal/core's flush schedule
// (flushSpan) arranges for every flush but the first and last of a range.
const HasNT = true

//go:noescape
func ntCopyBytes(dst, src unsafe.Pointer, n int64)

//go:noescape
func storeFence()

// NTCopyBytes copies bytes non-overlapping bytes from src to dst with
// non-temporal stores on the 16-byte-aligned body, in 64-byte blocks from its
// start (plain byte stores on the unaligned head and tail); a 64-byte-aligned
// dst therefore gets one complete line per block. NT stores are weakly ordered: the writing
// goroutine must call StoreFence before other goroutines read the data —
// ordinary release/acquire synchronization alone does not order them.
func NTCopyBytes(dst, src unsafe.Pointer, bytes int) {
	if bytes > 0 {
		ntCopyBytes(dst, src, int64(bytes))
	}
}

// StoreFence makes all preceding non-temporal stores visible before any
// later store (SFENCE). One fence per worker, after its last flush, is
// enough.
func StoreFence() { storeFence() }
