package main

import (
	"math"
	"sort"
	"time"
)

// The sandbox the benchmark is sized for shares its last-level cache and its
// memory bus with other tenants. When they are busy, the same single-thread
// product takes up to 1.8 times as long, in stretches of a few seconds to a
// few minutes: over twenty minutes of unmodified code the Hash product of
// er_highcf_auto ranged from 176 to 311 ms, and within one ten-second window
// it sat at 197 ms for one stretch and at 350 ms for the next. No bound the
// manifest allows survives that, so the benchmark times a fixed piece of work
// of its own between operations, a pass of the speed probe, and uses it twice
// (quiet, below): to leave out the stretches of a window in which the machine
// was disturbed, and to report every timing among the end-to-end metrics at
// reference machine speed. The pass is a STREAM-like sweep and random reads
// far beyond the private caches, in the benchmark's own code, which no change
// to the program can alter. Register arithmetic is not part of it: it did not
// slow down at all while the products did.

// speedRefMs is what one pass of the probe takes on the quiet sandbox
// (7.5 ms of sweep, 10.5 ms of random reads).
const speedRefMs = 18.0

type speedProbe struct {
	a, b, c []float64 // 8 MiB each: the sweep
	table   []uint64  // 32 MiB: the random reads
	sink    uint64
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{
		a: make([]float64, 1<<20), b: make([]float64, 1<<20), c: make([]float64, 1<<20),
		table: make([]uint64, 1<<22),
	}
	for i := range p.table {
		p.table[i] = uint64(i)
	}
	for i := range p.a {
		p.b[i], p.c[i] = 1, 2
	}
	return p
}

// pass runs the fixed work once and returns its duration in milliseconds.
func (p *speedProbe) pass() float64 {
	t := time.Now()
	for r := 0; r < 4; r++ { // Triad over three 8 MiB arrays
		for i := range p.a {
			p.a[i] = p.b[i] + 3*p.c[i]
		}
	}
	x, idx, mask := uint64(0), uint64(12345), uint64(len(p.table)-1)
	for i := 0; i < 1_000_000; i++ { // independent random reads from 32 MiB
		idx = idx*6364136223846793005 + 1442695040888963407
		x += p.table[(idx>>20)&mask]
	}
	p.sink += x + uint64(p.a[7])
	return float64(time.Since(t)) / 1e6
}

// slowdown is the median of the given passes over the reference: 1.3 means
// that the machine ran the probe 30 % slower than the quiet sandbox does.
func slowdown(passMs []float64) float64 { return median(passMs) / speedRefMs }

const (
	// quietWithin is how far above the window's quiet level (the tenth
	// percentile of its passes) a pass may read and still count as quiet.
	quietWithin = 1.10
	// quietFloor is the share of a window's segments that is measured
	// however disturbed the window was: the quietest ones.
	quietFloor = 1.0 / 3
)

// quiet returns the segments of a window in which the machine was not
// disturbed: those whose two bounding passes both read within quietWithin of
// the window's quiet level, and at least the quietest quietFloor of all. The
// probe only has to notice a disturbance for this, not to slow down by as much
// as the product does (it does not: 1.4 times against 1.8). Each kept
// segment's slowdown is the mean of its two passes over the reference; it
// corrects what is left, a window that was slow from end to end.
func quiet(segs []segment) (kept []segment, slow []float64) {
	passes := []float64{segs[0].before}
	for _, sg := range segs {
		passes = append(passes, sg.after)
	}
	sort.Float64s(passes)
	level := quietWithin * percentile(passes, 0.10)
	order := append([]segment(nil), segs...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].reading() < order[j].reading() })
	n := int(math.Ceil(quietFloor * float64(len(order))))
	for n < len(order) && order[n].reading() <= level {
		n++
	}
	kept = order[:n]
	for _, sg := range kept {
		slow = append(slow, (sg.before+sg.after)/2/speedRefMs)
	}
	return kept, slow
}
