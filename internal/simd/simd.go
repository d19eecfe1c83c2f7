// Package simd holds the batched inner-loop kernels of expand (key-compute +
// scatter, every layout) and of the wide layout's byte-digit sort (counting,
// stable scatter, accumulate-on-equal-key fold), written over raw pointers so
// bounds checks amortize and the compiler sees straight-line ILP. (The key32
// layouts' sort/fold kernels are plain safe Go in internal/radix: an unsafe
// unroll bought them under 10 %.) The package is the single dispatch point
// for hardware-specific code:
//
//   - Default build (no tags): unsafe-batched pure Go. The loops are written
//     so each 8-wide group compiles to branchless loads/stores; GOAMD64=v3
//     lets the compiler pick BMI/AVX forms of the shift/mask arithmetic.
//   - -tags purego: every batched entry point degrades to the scalar
//     reference implementation — no unsafe, no assembly. This is the build
//     for auditability and for platforms where unsafe batching is unwanted.
//   - amd64 assembly is limited to cache-control hints (prefetch_amd64.s);
//     the structure admits AVX2/NEON bodies behind further build tags
//     without touching any caller.
//
// Every kernel has an exported ...Scalar reference twin compiled into every
// build. The scalar twins are the oracle: batched and scalar must be
// BIT-IDENTICAL (same element order, same floating-point association — the
// batched forms never reorder value additions), which this package's tests
// pin kernel by kernel. A build has one kernel form — the build tag is the
// only switch — and core reports it on Stats.Kernel; the purego CI lane runs
// the whole engine suite over the scalar loops.
package simd

// Pair mirrors radix.Pair (an 8-byte packed key and its float64 value).
// Declared here so the kernels stay dependency-free; internal/radix converts
// its identical struct via unsafe.Slice at the call boundary.
type Pair struct {
	Key uint64
	Val float64
}

// Value is the element set of the value-carrying tuple layouts: float64
// (squeezed), float32 and int32 (narrow). It matches radix.Numeric.
type Value interface {
	~float32 | ~float64 | ~int32
}

// Level reports the kernel level of this build, for Stats/bench output:
// "batched" (default build), "batched+goamd64v3" (compiled with GOAMD64=v3
// or higher) or "purego" (-tags purego).
func Level() string { return level }
