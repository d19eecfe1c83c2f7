// Package stream implements the STREAM sustainable-memory-bandwidth
// benchmark (McCalpin) in Go: the Copy, Scale, Add and Triad kernels over
// large float64 arrays, parallelized across goroutines. The paper uses
// STREAM to establish beta, the bandwidth term of its Roofline model
// (Table V), and expects every PB-SpGEMM phase to sustain bandwidth close to
// these numbers.
package stream

import (
	"time"

	"pbspgemm/internal/par"
)

// Kernel identifies one STREAM kernel.
type Kernel int

// The four STREAM kernels in canonical order.
const (
	Copy  Kernel = iota // c[i] = a[i];          2 arrays moved
	Scale               // b[i] = s*c[i];        2 arrays moved
	Add                 // c[i] = a[i]+b[i];     3 arrays moved
	Triad               // a[i] = b[i]+s*c[i];   3 arrays moved
)

// String returns the STREAM kernel name.
func (k Kernel) String() string {
	switch k {
	case Copy:
		return "Copy"
	case Scale:
		return "Scale"
	case Add:
		return "Add"
	case Triad:
		return "Triad"
	}
	return "Unknown"
}

// bytesMoved returns the bytes of traffic one iteration of kernel k causes
// over n float64 elements, following the official STREAM accounting (write
// allocate ignored, as in the reference implementation).
func (k Kernel) bytesMoved(n int) int64 {
	arrays := int64(2)
	if k == Add || k == Triad {
		arrays = 3
	}
	return arrays * int64(n) * 8
}

// Result holds the measured bandwidth of one kernel.
type Result struct {
	Kernel   Kernel
	BestGBs  float64 // best-of-repetitions bandwidth in GB/s (1e9 bytes)
	AvgGBs   float64
	BytesPer int64 // bytes moved per repetition
}

// Options configures a STREAM run.
type Options struct {
	N       int // elements per array; default 1<<25 (256 MiB per array set of 3)
	Reps    int // timed repetitions; default 5 (best is reported, as STREAM does)
	Threads int // worker goroutines; default GOMAXPROCS
	// Kernels restricts the run to a subset (in the given order); nil runs
	// all four in canonical order. Reduced runs serve quick calibrations.
	Kernels []Kernel
}

func (o *Options) defaults() {
	if o.N <= 0 {
		o.N = 1 << 25
	}
	if o.Reps <= 0 {
		o.Reps = 5
	}
	if o.Kernels == nil {
		o.Kernels = []Kernel{Copy, Scale, Add, Triad}
	}
}

// Run executes all four kernels and returns their results in kernel order.
// The arrays are touched once before timing (first-touch/page-fault warmup,
// as the reference STREAM does).
func Run(opt Options) []Result {
	opt.defaults()
	a := make([]float64, opt.N)
	b := make([]float64, opt.N)
	c := make([]float64, opt.N)
	par.ForRanges(opt.N, opt.Threads, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] = 1.0
			b[i] = 2.0
			c[i] = 0.0
		}
	})

	results := make([]Result, 0, len(opt.Kernels))
	const scalar = 3.0
	for _, k := range opt.Kernels {
		var best, sum float64
		for rep := 0; rep < opt.Reps; rep++ {
			start := time.Now()
			switch k {
			case Copy:
				par.ForRanges(opt.N, opt.Threads, func(_, lo, hi int) {
					copy(c[lo:hi], a[lo:hi])
				})
			case Scale:
				par.ForRanges(opt.N, opt.Threads, func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						b[i] = scalar * c[i]
					}
				})
			case Add:
				par.ForRanges(opt.N, opt.Threads, func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						c[i] = a[i] + b[i]
					}
				})
			case Triad:
				par.ForRanges(opt.N, opt.Threads, func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						a[i] = b[i] + scalar*c[i]
					}
				})
			}
			elapsed := time.Since(start).Seconds()
			gbs := float64(k.bytesMoved(opt.N)) / elapsed / 1e9
			if gbs > best {
				best = gbs
			}
			sum += gbs
		}
		results = append(results, Result{
			Kernel: k, BestGBs: best, AvgGBs: sum / float64(opt.Reps),
			BytesPer: k.bytesMoved(opt.N),
		})
	}
	return results
}

// QuickTriad measures only the Triad kernel — the conventional headline
// STREAM number and the beta term of the Roofline model — and returns the
// best-of-reps bandwidth in GB/s: a full default Run times all four
// kernels over 256 MiB arrays, while QuickTriad over ~16 MiB arrays
// finishes in tens of milliseconds. n <= 0 defaults to 1<<21 elements,
// reps <= 0 to 3.
func QuickTriad(n, threads, reps int) float64 {
	if n <= 0 {
		n = 1 << 21
	}
	if reps <= 0 {
		reps = 3
	}
	return Beta(Run(Options{N: n, Reps: reps, Threads: threads, Kernels: []Kernel{Triad}}))
}

// Beta returns the bandwidth the Roofline model should use: the paper uses
// the STREAM numbers as beta and observes PB phases near Copy/Triad. We
// report the best Triad figure, the conventional headline STREAM number.
func Beta(results []Result) float64 {
	for _, r := range results {
		if r.Kernel == Triad {
			return r.BestGBs
		}
	}
	if len(results) > 0 {
		return results[len(results)-1].BestGBs
	}
	return 0
}
