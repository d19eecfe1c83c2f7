package roofline

// Product is what the planner knows of C = A·B before running it.
type Product struct {
	Rows, Cols   int32 // of C: rows of A, columns of B
	NNZA, NNZB   int64
	Flops, NNZC  int64 // NNZC is the planner's estimate
	L2CacheBytes int64 // the per-core cache budget both kernels size themselves to
	// ValueBytes is what a value of SPA's accumulator takes: 8 for float64, 4
	// for float32 and int32, 0 for a Boolean product, which keeps only marks.
	ValueBytes int64
}

// The planner's cost model: a kernel's time is its work counts (PBTerms,
// SPATerms) times these nanoseconds, fitted by relative least squares on the
// wall times of the sweep `cmd/experiments planner -full -threads 1` runs — cf
// 1…32 × {uniform ER, R-MAT squared} × cols(B) 2^10…2^16 at 512 rows or more,
// the eight products the SPA kernel was sized on, two hypersparse products and three 16-row
// dense ones past 2^16 columns; 65 points of 1 to 40 Mflop, one thread of a
// 2.1 GHz Xeon with 4 MiB of L2. Residuals |predicted − measured| / measured:
// PB median 5 %, 90th percentile 20 %, worst 31 %; SPA 6 %, 19 %, 24 %.
// SPACostNS was refitted when the row kernel's dense rows stopped chaining on
// one bitmap word (66 points, one thread of a 2.1 GHz Xeon with 2 MiB of L2):
// residuals median 11 %, 90th percentile 28 %, worst 38 %, where the constants
// before it read 25 %, 58 %, 70 % on the same run, and PB's 28 %, 39 %, 54 %.
// On that run the smaller prediction is the faster kernel on 60 of the 63
// scored points; the three it misses are within 11 % (ER 2^12·d32, 2^14·d16,
// 2^15·d8). README "Choosing an algorithm" has the table. What the constants
// amount to: SPA, unless A is hypersparse against a B that is out of cache — a
// miss per entry of A then outweighs PB's sort. They are one machine's
// measurements and predict times on that machine; another machine's speed
// would scale both predictions alike and never change the pick, so nothing
// rescales them. They are refitted by rerunning the sweep, which prints them:
// not at NewEngine.
var (
	// PBCostNS: per product when bins fold through the direct-address
	// accumulator, per product when they sort, per output entry.
	PBCostNS = [3]float64{3.71, 14.5, 8.23}
	// SPACostNS: per product into a cache-resident accumulator, per product
	// into one that is not, per row of B fetched from beyond the cache, per
	// output entry (emitted, staged and copied).
	SPACostNS = [4]float64{0.527, 2.91, 124, 10.3}
)

// PBTerms are the work counts PBCostNS prices. Which of its two kernels a bin's
// fold runs is core's denseFold rule at its default geometry: bins hold
// L2/16 B tuples and the accumulator at most 4·L2 of 8-byte slots, so a bin
// folds dense when the product has a flop for every eight entries of C's shape.
func (p Product) PBTerms() [3]float64 {
	t := [3]float64{float64(p.Flops), 0, float64(p.NNZC)}
	if 8*p.Flops < int64(p.Rows)*int64(p.Cols) {
		t[0], t[1] = 0, t[0]
	}
	return t
}

// SPATerms are the work counts SPACostNS prices. The accumulator is ValueBytes
// and a bit per column of B; a row of B is fetched once per entry of A, and
// misses with the share of B that does not fit the cache.
func (p Product) SPATerms() [4]float64 {
	miss := max(0, 1-float64(p.L2CacheBytes)/(12*float64(p.NNZB)))
	t := [4]float64{float64(p.Flops), 0, float64(p.NNZA) * miss, float64(p.NNZC)}
	if int64(p.Cols)*p.ValueBytes+int64(p.Cols)/8 > p.L2CacheBytes {
		t[0], t[1] = 0, t[0]
	}
	return t
}

// PredictPB and PredictSPA return the kernels' modeled times in nanoseconds on
// the machine the constants were fitted on.
func (p Product) PredictPB() float64 {
	t := p.PBTerms()
	return dot(t[:], PBCostNS[:])
}

func (p Product) PredictSPA() float64 {
	t := p.SPATerms()
	return dot(t[:], SPACostNS[:])
}

func dot(terms, cost []float64) (ns float64) {
	for i, t := range terms {
		ns += t * cost[i]
	}
	return ns
}
