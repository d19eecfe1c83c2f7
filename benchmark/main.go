// Command benchmark is the repository's performance benchmark: seven named
// workloads from one kernel call to the shard grid, seven end-to-end metrics
// per workload, and a traced run that attributes time to layers. It measures
// from outside, by timing calls into public functions and reading the values
// they return. See README.md; BENCHMARK.json at the repository root is the
// manifest.
//
// With -workload it runs one workload and prints, as the last line of its
// standard output, one JSON object with the keys correct, attempted, failed
// and metrics. Without it, it re-executes itself once per workload (so peak
// memory, GC state and the one-shot beta calibration are per workload),
// prints a table and writes benchmark/out/result.json.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"pbspgemm/internal/faultinject"
)

// outDir receives result.json and the trace files.
const outDir = "benchmark/out"

// procs is the GOMAXPROCS every timed window runs at. One, not the machine's
// core count: on the two shared vCPUs the benchmark is sized for, the same
// two-thread product swings between 93 and 185 ms for tens of seconds at a
// time while the one-thread product holds 174 to 184 ms, and no regression
// bound survives a 40 % move between two sets of runs of one commit. The
// traced run measures the multi-thread product as a layer (engine.mt_ms_p50).
const procs = 1

func main() {
	var (
		workload = flag.String("workload", "", "run this workload only and end with the result as one JSON line")
		seed     = flag.Uint64("seed", 42, "seed of every generated input")
		seconds  = flag.Float64("seconds", 10, "length of the timed window")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		sets     = flag.Int("sets", 1, "run everything this many times, alternating the workload order, and compare the sets")
		smoke    = flag.Bool("smoke", false, "tiny inputs and a window of seconds/20: checks the plumbing, measures nothing")
	)
	flag.Parse()
	if faultinject.Enabled {
		fmt.Fprintln(os.Stderr, "benchmark: refusing to measure a faultinject-tagged binary (hooks compiled in)")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke}
	if *workload != "" {
		os.Exit(runOne(*workload, cfg))
	}
	os.Exit(runAll(cfg, *sets))
}

// metricValue is one metric in the driver's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the driver's result line: exactly these four keys.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func defsFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runOne runs one workload in this process and prints its metrics by name
// and unit, then the result line.
func runOne(name string, cfg config) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	res := runWorkload(w, cfg)
	out := line{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	fmt.Printf("workload %s seed %d window %gs trace %v\n", name, cfg.seed, cfg.window(), cfg.trace)
	for _, d := range defsFor(cfg.trace) {
		v := res.Metrics[d.Name]
		out.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Printf("  %-30s %14.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Printf("  %-30s %14.6g ratio (%d of %d)\n", "failed_share", float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	for _, k := range sortedKeys(res.Notes) {
		fmt.Printf("  %-30s %s\n", k, res.Notes[k])
	}
	if res.err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, res.err)
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Println(string(data))
	if !res.Correct {
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// report is one child run: its result line and the text printed above it.
type report struct {
	line
	Text string `json:"report"`
}

// child runs one workload in a process of its own, forwards its printed
// report and parses its last line.
func child(name string, cfg config) (report, error) {
	self, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0"}
	if cfg.trace {
		args[len(args)-1] = "1"
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	text, last, _ := bytes.Cut(bytes.TrimSpace(stdout), []byte("\n{"))
	r := report{Text: string(text)}
	fmt.Println(r.Text)
	if err := json.Unmarshal(append([]byte("{"), last...), &r.line); err != nil {
		return r, fmt.Errorf("%s printed no result (%v): %w", name, runErr, err)
	}
	return r, nil
}

// resultFile is benchmark/out/result.json.
type resultFile struct {
	Machine machine `json:"machine"`
	Seed    uint64  `json:"seed"`
	Seconds float64 `json:"window_seconds"`
	// OpScale is the factor by which the op counts of the design (fixed
	// counts sized for 12 to 18 s windows) shrink under the time-boxed
	// window; input sizes are never scaled.
	OpScale    float64 `json:"op_count_scale"`
	TriadElems int     `json:"triad_array_elems"`
	Smoke      bool    `json:"smoke"`
	// Sets holds, per set, per workload, the end-to-end line and (with
	// -trace 1) the per-layer line.
	Sets []map[string]workloadResult `json:"sets"`
}

type workloadResult struct {
	EndToEnd report  `json:"end_to_end"`
	PerLayer *report `json:"per_layer,omitempty"`
}

// designWindowSeconds is the mean window of the fixed op counts the
// workloads were sized with (14, 18, 14, 12, 12, 10 and 13 s).
const designWindowSeconds = 13.3

// runAll runs every workload, each in its own process, sets times over.
func runAll(cfg config, sets int) int {
	file := resultFile{Machine: machineRecord(), Seed: cfg.seed, Seconds: cfg.seconds,
		OpScale: cfg.seconds / designWindowSeconds, TriadElems: triadElems, Smoke: cfg.smoke}
	status := 0
	for set := 0; set < sets; set++ {
		results := map[string]workloadResult{}
		for i := range workloads {
			w := workloads[i]
			if set%2 == 1 {
				w = workloads[len(workloads)-1-i]
			}
			plain := cfg
			plain.trace = false
			wr := workloadResult{}
			var err error
			if wr.EndToEnd, err = child(w.name, plain); err == nil && cfg.trace {
				var traced report
				traced, err = child(w.name, cfg)
				wr.PerLayer = &traced
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				status = 1
			}
			if !wr.EndToEnd.Correct || (wr.PerLayer != nil && !wr.PerLayer.Correct) {
				status = 1
			}
			results[w.name] = wr
		}
		file.Sets = append(file.Sets, results)
	}
	if sets > 1 && !compareSets(file.Sets) {
		status = 1
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		if err = os.MkdirAll(outDir, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(outDir, "result.json"), data, 0o644)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	return status
}

// compareSets prints, for every end-to-end metric and workload, how much
// worse (negative: better) the last set is than the first beside the metric's
// bound, and reports whether the sets agree: every difference, either way,
// within its bound.
func compareSets(sets []map[string]workloadResult) bool {
	first, last := sets[0], sets[len(sets)-1]
	ok := true
	fmt.Printf("\n%-18s %-18s %12s %12s %9s %7s\n", "workload", "metric", "first", "last", "worse by", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a, b := first[w.name].EndToEnd.Metrics[d.Name].Value, last[w.name].EndToEnd.Metrics[d.Name].Value
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			flag := ""
			if !(math.Abs(worse) <= d.Bound) {
				flag, ok = "  EXCEEDED", false
			}
			fmt.Printf("%-18s %-18s %12.6g %12.6g %8.1f%% %6.0f%%%s\n", w.name, d.Name, a, b, 100*worse, 100*d.Bound, flag)
		}
		if f := first[w.name].EndToEnd.Failed + last[w.name].EndToEnd.Failed; f > 0 {
			fmt.Printf("%-18s %d operations failed\n", w.name, f)
			ok = false
		}
	}
	fmt.Println(strings.Repeat("-", 80))
	return ok
}
