package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

func TestTailRankKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{100: 0.90, 40: 0.75, 50: 0.80, 60: 50.0 / 60, 6000: 0.99, 12: 0.5} {
		if _, got := tailRank(n); math.Abs(got-want) > 1e-12 {
			t.Errorf("tailRank(%d) is p%g, want p%g", n, 100*got, 100*want)
		}
	}
	for n := 1; n <= 3000; n++ {
		rank, p := tailRank(n)
		beyond := n - 1 - rank
		switch {
		case rank < 0 || rank >= n || (n >= 21 && p >= 0.99+1/float64(n)):
			t.Fatalf("n=%d: rank %d, p%g", n, rank, 100*p)
		case n >= 21 && beyond < 10:
			t.Fatalf("n=%d: only %d samples beyond the tail", n, beyond)
		case n >= 21 && beyond > 10 && float64(rank+2)/float64(n) <= 0.99:
			t.Fatalf("n=%d: %d samples beyond, a higher percentile qualifies", n, beyond)
		case n < 21 && rank != (n+1)/2-1:
			t.Fatalf("n=%d: rank %d is not the median", n, rank)
		}
	}
}

func TestQuietKeepsUndisturbedSegments(t *testing.T) {
	// Passes of 18 to 19 ms are the quiet machine; 26 ms is a busy neighbour.
	passes := []float64{18, 18.5, 26, 27, 19, 18, 18.2, 26, 18.4, 18.1, 18.3}
	var segs []segment
	for i := 0; i+1 < len(passes); i++ {
		segs = append(segs, segment{before: passes[i], after: passes[i+1], lat: []float64{float64(i)}})
	}
	kept, slow := quiet(segs)
	var ops []float64
	for i, sg := range kept {
		ops = append(ops, sg.lat[0])
		if want := (sg.before + sg.after) / 2 / speedRefMs; slow[i] != want {
			t.Errorf("segment %v: slowdown %g, want %g", sg.lat, slow[i], want)
		}
	}
	if sort.Float64s(ops); !reflect.DeepEqual(ops, []float64{0, 4, 5, 8, 9}) {
		t.Errorf("kept segments %v, want those between two quiet passes", ops)
	}
	// A window disturbed from end to end still measures its quietest third.
	for i := range segs {
		segs[i].before, segs[i].after = 30+3*float64(i), 33+3*float64(i)
	}
	if kept, _ := quiet(segs); len(kept) != 4 || kept[0].lat[0] != 0 {
		t.Errorf("kept %d segments of a disturbed window, want the quietest 4 of 10", len(kept))
	}
}

func TestSelfTimeIsDurationMinusCoveredChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a: 10..50 is covered once
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "a.inner", Start: 12, End: 18, Parent: 1},
	}
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	if got, want := selfTimes(spans), []int64{50, 14, 30, 10, 6}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	spans[3].End = 101
	if checkNesting(spans) == nil {
		t.Error("a child that ends after its parent passed the nesting check")
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", -1, 7)
	kid := tr.begin("call", root, 7)
	tr.end(kid)
	tr.end(root)
	if err := checkNesting(tr.spans); err != nil {
		t.Fatal(err)
	}
	if len(tr.durationsMs("call")) != 1 || tr.spans[kid].Op != 7 {
		t.Errorf("spans %+v", tr.spans)
	}
	var off *tracer
	off.end(off.begin("op", -1, 0)) // tracing off records nothing and does not crash
}

func TestRequestStreamDependsOnSeedOnly(t *testing.T) {
	build := func(seed uint64) []byte {
		hot, probes, stream := buildStream(seed, serveMatrices, serveStreamLen)
		if len(stream) != serveStreamLen || len(hot) != serveHotPairs || len(probes) != serveProbePairs {
			t.Fatalf("seed %d: %d requests, %d hot pairs, %d probe pairs", seed, len(stream), len(hot), len(probes))
		}
		seen := map[[2]int]bool{}
		for _, p := range append(append([][2]int{}, hot...), probes...) {
			seen[p] = true
		}
		var classes [numClasses]int
		for _, r := range stream {
			classes[r.Class]++
			if r.Class == classCold {
				if seen[[2]int{r.A, r.B}] {
					t.Fatalf("seed %d: cold pair (%d,%d) was asked before", seed, r.A, r.B)
				}
				seen[[2]int{r.A, r.B}] = true
			}
		}
		for c, share := range [numClasses]float64{0.6, 0.2, 0.1, 0.1} {
			if got := float64(classes[c]) / float64(len(stream)); math.Abs(got-share) > 0.03 {
				t.Errorf("seed %d: class %s is %.3f of the stream, want %.1f", seed, className[c], got, share)
			}
		}
		data, err := json.Marshal([]any{hot, probes, stream})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b, c := build(42), build(42), build(43)
	if string(a) != string(b) {
		t.Error("the same seed gave two different streams")
	}
	if string(a) == string(c) {
		t.Error("two seeds gave the same stream")
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManifestMatchesTheMetricTables(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if u != "" && better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", n, better)
		}
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the benchmark %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		check(w.Name, "", "")
		if w.Name != workloads[i].name || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d is %q (why: %d characters), the benchmark has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d+%d metrics, the tables %d+%d", len(m.EndToEnd), len(m.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, e := range m.EndToEnd {
		check(e.Name, e.Unit, e.Better)
		d := endToEnd[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != d.Bound || e.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: manifest %+v, table %+v", i, e, d)
		}
	}
	for i, e := range m.PerLayer {
		check(e.Name, e.Unit, e.Better)
		d := perLayer[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || d.Layer == "" || d.Moves == "" {
			t.Errorf("per-layer metric %d: manifest %+v, table %+v", i, e, d)
		}
	}
	if !reflect.DeepEqual(m.Command, []string{"bash", "benchmark/run.sh"}) || !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
}

// TestSmoke runs every workload end to end on tiny inputs, plain and traced,
// and checks that every metric the manifest names is emitted.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	for i := range workloads {
		w := &workloads[i]
		for _, trace := range []bool{false, true} {
			res := runWorkload(w, config{seed: 42, seconds: 5, trace: trace, smoke: true})
			if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d: %v", w.name, trace, res.Correct, res.Failed, res.Attempted, res.err)
			}
			if trace {
				for _, d := range m.PerLayer {
					if v, ok := res.Metrics[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s: per-layer metric %s is missing or not a number (%v)", w.name, d.Name, v)
					}
				}
				continue
			}
			for _, d := range m.EndToEnd {
				if v := res.Metrics[d.Name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: end-to-end metric %s is %v", w.name, d.Name, v)
				}
			}
		}
	}
}
