// Package simd holds the batched inner-loop kernels of the key32 layouts'
// expand (key-compute + scatter into a local bin), written over raw pointers
// so bounds checks amortize and the compiler sees straight-line ILP, and the
// cache-control primitives every layout's flush uses. (The sort/fold kernels
// are plain safe Go in internal/radix: an unsafe unroll bought the key32 ones
// under 10 %, and the wide layout's expand multiplies through a semiring's
// function value, which leaves nothing to batch.) The package is the single
// dispatch point for hardware-specific code:
//
//   - Default build (no tags): unsafe-batched pure Go; GOAMD64=v3 lets the
//     compiler pick BMI/AVX forms of the shift/mask arithmetic.
//   - -tags purego: every batched entry point degrades to the scalar
//     reference implementation — no unsafe, no assembly. This is the build
//     for auditability and for platforms where unsafe batching is unwanted.
//   - amd64 assembly is limited to cache-control hints and non-temporal
//     copies (prefetch_amd64.s, ntcopy_amd64.s); the structure admits
//     AVX2/NEON bodies behind further build tags without touching any caller.
//
// Every kernel has an exported ...Scalar reference twin compiled into every
// build. The scalar twins are the oracle: batched and scalar must be
// BIT-IDENTICAL, which this package's tests pin kernel by kernel. A build has
// one kernel form — the build tag is the only switch — and core reports it on
// Stats.Kernel; the purego CI lane runs the whole engine suite over the
// scalar loops.
package simd

// Value is the element set of the value-carrying tuple layouts: float64
// (squeezed), float32 and int32 (narrow). It matches radix.Numeric.
type Value interface {
	~float32 | ~float64 | ~int32
}

// Level reports the kernel level of this build, for Stats/bench output:
// "batched" (default build), "batched+goamd64v3" (compiled with GOAMD64=v3
// or higher) or "purego" (-tags purego).
func Level() string { return level }
