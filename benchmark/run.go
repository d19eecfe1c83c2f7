package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pbspgemm/internal/stream"
)

// config is one run of one workload.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
	// smoke shrinks inputs and the window so that the whole path runs in a
	// moment; its numbers mean nothing.
	smoke bool
}

// window is the length of the timed window.
func (c config) window() float64 {
	if c.smoke {
		return c.seconds / 20
	}
	return c.seconds
}

// pick returns full, or small on a smoke run.
func (c config) pick(full, small int) int {
	if c.smoke {
		return small
	}
	return full
}

// runner is a workload after set-up: inputs generated, oracle computed,
// program warmed up.
type runner interface {
	// op runs timed operation i and checks its reply in O(1). parent is the
	// operation's root span (-1 when tracing is off).
	op(tr *tracer, parent, i int) error
	// verify compares the first and the last output entry by entry, off
	// the clock.
	verify() error
	// layers measures the workload's layers in the traced run. opP50 is
	// the median traced operation in milliseconds.
	layers(tr *tracer, opP50 float64, out map[string]float64) error
	// notes adds facts about the run that are not metrics.
	notes(map[string]string)
	close()
}

// setupInfo is what set-up reports beside the runner.
type setupInfo struct {
	genS, oracleS float64
	flopsPerOp    int64 // 0 when the ops of a workload differ
	maxOps        int   // 0 = unbounded; serve_mix stops when its stream ends
}

// workloadDef is one named workload; BENCHMARK.json records why it exists.
type workloadDef struct {
	name  string
	setup func(config) (runner, setupInfo, error)
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

const (
	// setupReps is how often set-up is repeated in an end-to-end run;
	// setup_s is the median.
	setupReps = 3
	// minOps is the fewest operations a window measures, however short.
	minOps = 5
	// probeEvery is how often a window runs one pass of the speed probe.
	probeEvery = 150 * time.Millisecond
	// triadElems sizes the STREAM Triad arrays of the traced run: 2^25
	// float64 = 256 MiB per array, 768 MiB in all, far beyond the caches.
	triadElems = 1 << 25
)

// onAllCores runs f with GOMAXPROCS raised from procs to min(nproc, 4), the
// setting the program is meant to run at, and passes it that core count.
func onAllCores(f func(cores int)) {
	cores := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(cores)
	defer runtime.GOMAXPROCS(procs)
	f(cores)
}

// segment is the stretch of a window between two passes of the speed probe.
// No operation is in flight during a pass, so every operation lies in one
// segment.
type segment struct {
	before, after float64   // the bounding passes, ms
	lat           []float64 // ms per untraced operation
	traced        []float64 // ms per traced operation
	wall, cpu     float64   // seconds between the passes
}

// reading is the slower of the segment's two passes.
func (sg segment) reading() float64 { return max(sg.before, sg.after) }

// window is one timed stretch of closed-loop operations.
type window struct {
	segs    []segment
	failed  int
	firstEr error
}

// runWindow calls r in a closed loop (the next operation starts when the
// previous one has returned) until seconds have passed or maxOps operations
// are done. Whenever probeEvery has passed since the last pass of the speed
// probe it runs the next one, between two operations. With a tracer, half the
// operations are traced and half run untraced between them, in the order
// plain, traced, traced, plain: a drift of the machine, or a garbage
// collection every second operation, then hits both kinds alike.
func runWindow(r runner, maxOps int, seconds float64, tr *tracer, speed *speedProbe) window {
	var (
		w     window
		limit = time.Duration(seconds * float64(time.Second))
		need  = minOps
		cur   = segment{before: speed.pass()}
		start = time.Now()
		t0    = start
		cpu0  = cpuSeconds()
	)
	if tr != nil {
		need *= 2
	}
	// boundary ends the current segment with one pass and begins the next.
	boundary := func() {
		cur.wall, cur.cpu = time.Since(t0).Seconds(), cpuSeconds()-cpu0
		cur.after = speed.pass()
		w.segs = append(w.segs, cur)
		cur = segment{before: cur.after}
		t0, cpu0 = time.Now(), cpuSeconds()
	}
	for i := 0; maxOps == 0 || i < maxOps; i++ {
		if time.Since(start) >= limit && i >= need {
			break
		}
		if time.Since(t0) >= probeEvery {
			boundary()
		}
		opTr := tr
		if i%4 == 0 || i%4 == 3 {
			opTr = nil
		}
		root := opTr.begin("op", -1, i)
		t := time.Now()
		err := r.op(opTr, root, i)
		ms := float64(time.Since(t)) / 1e6
		opTr.end(root)
		if opTr != nil {
			cur.traced = append(cur.traced, ms)
		} else {
			cur.lat = append(cur.lat, ms)
		}
		if err != nil {
			w.failed++
			if w.firstEr == nil {
				w.firstEr = fmt.Errorf("op %d: %w", i, err)
			}
		}
	}
	boundary()
	return w
}

// flat gathers the window's operations, ascending, its passes and its length
// in seconds (passes excluded).
func (w window) flat() (lat, traced, passMs []float64, wall float64) {
	passMs = []float64{w.segs[0].before}
	for _, sg := range w.segs {
		lat, traced = append(lat, sg.lat...), append(traced, sg.traced...)
		passMs = append(passMs, sg.after)
		wall += sg.wall
	}
	sort.Float64s(lat)
	sort.Float64s(traced)
	return
}

// result is what one run of one workload produced.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]float64
	// Notes are facts about the run that are not metrics: the tail
	// percentile used, the kernel that executed, the shard grid.
	Notes map[string]string
	err   error
}

// runWorkload sets the workload up, measures it and checks its outputs.
func runWorkload(w *workloadDef, cfg config) result {
	res := result{Metrics: map[string]float64{}, Notes: map[string]string{}}
	fail := func(err error) result {
		res.err, res.Correct = err, false
		res.Attempted = max(res.Attempted, 1)
		return res
	}
	reps := setupReps
	if cfg.trace || cfg.smoke {
		reps = 1
	}
	var (
		r     runner
		info  setupInfo
		speed = newSpeedProbe()
		// setups are the set-ups' durations in seconds: as timed, and at
		// reference machine speed by the passes just before and after each.
		wallSetups, setups []float64
	)
	for i := 0; i < reps; i++ {
		if r != nil {
			r.close()
			r = nil
			runtime.GC()
		}
		before := speed.pass()
		t := time.Now()
		var err error
		if r, info, err = w.setup(cfg); err != nil {
			return fail(fmt.Errorf("set-up: %w", err))
		}
		took := time.Since(t).Seconds()
		wallSetups = append(wallSetups, took)
		setups = append(setups, took/((before+speed.pass())/2/speedRefMs))
	}
	defer r.close()
	defer r.notes(res.Notes)

	if !cfg.trace {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		win := runWindow(r, info.maxOps, cfg.window(), nil, speed)
		runtime.ReadMemStats(&m1)
		// Timings come from the quiet part of the window and are reported at
		// reference machine speed (speed.go); counts are of the whole window.
		kept, slow := quiet(win.segs)
		var latMs []float64
		var wall, cpu float64
		for i, sg := range kept {
			for _, ms := range sg.lat {
				latMs = append(latMs, ms/slow[i])
			}
			wall, cpu = wall+sg.wall/slow[i], cpu+sg.cpu/slow[i]
		}
		sort.Float64s(latMs)
		allMs, _, passMs, allWall := win.flat()
		n := float64(len(latMs))
		rank, tail := tailRank(len(latMs))
		res.Attempted, res.Failed = len(allMs), win.failed
		res.Metrics["op_ms_p50"] = percentile(latMs, 0.5)
		res.Metrics["op_ms_tail"] = latMs[rank]
		res.Metrics["ops_per_s"] = n / wall
		res.Metrics["setup_s"] = median(setups)
		res.Metrics["alloc_mib_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(len(allMs))
		res.Metrics["cpu_s_per_op"] = cpu / n
		res.Notes["machine_slowdown"] = fmt.Sprintf("%.3f over the window, %.3f over its quiet part (wall-clock: op_ms_p50 %.6g ms, ops_per_s %.6g, setup_s %.6g)",
			slowdown(passMs), median(slow), percentile(allMs, 0.5), float64(len(allMs))/allWall, median(wallSetups))
		res.Notes["quiet_part"] = fmt.Sprintf("%d of %d ops, %d of %d segments", len(latMs), len(allMs), len(kept), len(win.segs))
		res.Notes["tail_percentile"] = fmt.Sprintf("p%.0f of %d ops", tail*100, len(latMs))
		if info.flopsPerOp > 0 {
			res.Notes["gflops"] = fmt.Sprintf("%.3f (%d flops per op)", float64(info.flopsPerOp)*n/wall/1e9, info.flopsPerOp)
		}
		if err := r.verify(); err != nil {
			res.Failed++
			win.firstEr = err
		}
		res.Metrics["peak_rss_mib"] = peakRSSMiB()
		if res.Failed > 0 {
			return fail(win.firstEr)
		}
		res.Correct = true
		return res
	}

	// Traced run: the machine's yardsticks, one window in which every
	// other operation records spans, then the workload's own layer probes.
	out := res.Metrics
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	out["gen.generate_s"], out["oracle.reference_s"] = info.genS, info.oracleS
	n := cfg.pick(triadElems, 1<<18)
	out["stream.triad_1t_gbs"] = stream.QuickTriad(n, 1, 3)
	onAllCores(func(int) { out["stream.triad_nt_gbs"] = stream.QuickTriad(n, 0, 3) })
	out["stream.quicktriad_gbs"] = stream.QuickTriad(0, 0, 0)
	runtime.GC()

	tr := newTracer()
	win := runWindow(r, info.maxOps, cfg.window(), tr, speed)
	latMs, tracedMs, probeMs, _ := win.flat()
	out["machine.slowdown"] = slowdown(probeMs)
	res.Attempted, res.Failed = len(latMs)+len(tracedMs), win.failed
	opP50 := percentile(tracedMs, 0.5)
	out["trace.overhead_share"] = mean(tracedMs)/mean(latMs) - 1
	err := win.firstEr
	if err == nil && len(tracedMs) == 0 {
		err = fmt.Errorf("the workload ran out of operations before any was traced")
	}
	if err == nil {
		err = r.layers(tr, opP50, out)
	}
	if err == nil {
		err = r.verify()
	}
	if err == nil {
		err = checkNesting(tr.spans)
	}
	if err == nil && !cfg.smoke {
		err = os.MkdirAll(outDir, 0o755)
		if err == nil {
			err = tr.write(filepath.Join(outDir, "trace-"+w.name+".json"))
		}
	}
	if err != nil {
		res.Failed = max(res.Failed, 1)
		return fail(err)
	}
	res.Correct = true
	return res
}
