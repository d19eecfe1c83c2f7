//go:build !amd64 || purego

package simd

import "unsafe"

// Prefetch hints are no-ops off amd64 and under purego. The unsafe.Pointer
// in the signature is type-only; no memory is dereferenced.

// PrefetchRangeT0 is a no-op on this build.
func PrefetchRangeT0(p unsafe.Pointer, bytes int) {}

// PrefetchSlice is a no-op on this build.
func PrefetchSlice[T any](s []T) {}
