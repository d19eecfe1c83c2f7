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
// the eight products the SPA kernel was sized on, two hypersparse products and
// three 16-row dense ones past 2^16 columns: 66 points of 1 to 40 Mflop.
// SPACostNS was last refitted when the row kernel's dense rows stopped chaining
// on one bitmap word (one thread of a 2.1 GHz Xeon with 2 MiB of L2): residuals
// |predicted − measured| / measured median 11 %, 90th percentile 28 %, worst
// 38 %. PBCostNS was refitted once bins were sized for the dense fold (PB on
// ER 2^12·d32 went from SPA's time to 0.64–0.87 of it): its sort and output
// constants are the sweep's last refit, PB in SPA's units (each point's PB time
// times SPA's predicted over measured time, which cancels the box's speed), on
// the best of two `-full -reps 5` sweeps of a 2-vCPU Xeon with 2 MiB of L2 a
// core. That refit's dense constant, 2.81, misorders ER 2^12 at cf 2 and 639
// rows in the CI sweep (PB 1.07–1.28× SPA's time in seven runs); 3.71, as
// before, is the middle of the range (3.08–4.37) that orders it and ER 2^12·d32
// both. Residuals 14 % / 40 % / 54 % (the old constants 29 / 53 / 75); the
// smaller prediction is the faster kernel on 59 of 63 scored points, the misses
// within 10 % but ER 2^14·d16 (PB 0.82 of SPA, predicted a tie). README
// "Choosing an algorithm" has the table. What the constants amount to: SPA,
// unless a product that barely compresses meets a B that is out of cache — a
// miss per entry of A then outweighs PB's sort or dense fold. They are one
// machine's measurements and predict times on that machine; another machine's
// speed would scale both predictions alike and never change the pick, so
// nothing rescales them. They are refitted by rerunning the sweep, which
// prints them: not at NewEngine.
var (
	// PBCostNS: per product when bins fold through the direct-address
	// accumulator, per product when they sort, per output entry.
	PBCostNS = [3]float64{3.71, 8.90, 7.44}
	// SPACostNS: per product into a cache-resident accumulator, per product
	// into one that is not, per row of B fetched from beyond the cache, per
	// output entry (emitted, staged and copied).
	SPACostNS = [4]float64{0.527, 2.91, 124, 10.3}
)

// PBTerms are the work counts PBCostNS prices. Which of its two kernels a bin's
// fold runs is the cold clause of core's denseFold rule at its default geometry:
// the flop rule's bins hold L2/16 B tuples and the accumulator at most 4·L2 of
// 8-byte slots, so a bin folds dense when the product has a flop for every
// eight entries of C's shape. The dense cut then shortens such a bin until its
// fold fits L2, which halves its slots and its tuples alike: the rule's answer
// stands. The warm clause (an L2-resident bin folds dense at up to 512 slots a
// tuple) is not priced: its bins count as sorting until a sweep with Boolean
// points measures them.
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
