// Package simd holds the batched inner-loop kernels of the key32 layouts'
// expand (key-compute + scatter into a local bin), written so bounds checks
// leave the loop and the compiler sees straight-line ILP, and the
// cache-control primitives every layout's flush uses. (The sort/fold kernels
// are plain safe Go in internal/radix: an unsafe unroll bought them under
// 10 %. The generic binding's expand forms its keys with ExpandK and its
// values through a semiring's ⊗, which leaves nothing to batch.) The package
// is the single dispatch point for hardware-specific code:
//
//   - Default build (no tags): ExpandK batched through raw pointers,
//     ExpandKV through planes resliced once (safe Go, the same in every
//     build); GOAMD64=v3 lets the compiler pick BMI/AVX forms of the
//     shift/mask arithmetic.
//   - -tags purego: ExpandK degrades to its scalar reference — no unsafe,
//     no assembly. This is the build for auditability and for platforms
//     where unsafe batching is unwanted.
//   - amd64 assembly is limited to cache-control hints and non-temporal
//     copies (prefetch_amd64.s, ntcopy_amd64.s); the structure admits
//     AVX2/NEON bodies behind further build tags without touching any caller.
//
// Every kernel has an exported ...Scalar reference twin compiled into every
// build. The scalar twins are the oracle: batched and scalar must be
// BIT-IDENTICAL, which this package's tests pin kernel by kernel. A build has
// one kernel form — the build tag is the only switch — and core reports it on
// Stats.Kernel; the purego CI lane runs the whole engine suite with no
// unsafe kernel.
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
