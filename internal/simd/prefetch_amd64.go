//go:build amd64 && !purego

package simd

import "unsafe"

//go:noescape
func prefetchRangeT0(p unsafe.Pointer, bytes int64)

// PrefetchRangeT0 issues a T0 prefetch for every cache line of [p, p+bytes).
// Used on bin-flush destinations so the copy's store misses overlap the
// preceding compute instead of serializing on RFO latency.
func PrefetchRangeT0(p unsafe.Pointer, bytes int) {
	if bytes > 0 {
		prefetchRangeT0(p, int64(bytes))
	}
}

// PrefetchSlice issues a T0 prefetch for every cache line of s: a hint that
// turns a coming gather over s into one sequential fetch.
func PrefetchSlice[T any](s []T) {
	if len(s) > 0 {
		prefetchRangeT0(unsafe.Pointer(&s[0]), int64(len(s))*int64(unsafe.Sizeof(s[0])))
	}
}
