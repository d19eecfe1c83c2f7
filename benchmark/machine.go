package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"

	"pbspgemm/internal/numa"
	"pbspgemm/internal/simd"
)

// machine is the provenance record stored with every result file: numbers
// from different machines, builds or seeds are not comparable.
type machine struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	L2         string `json:"l2_cache"`
	L3         string `json:"l3_cache"`
	MemTotal   string `json:"mem_total"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64"`
	SIMDLevel  string `json:"simd_level"`
	NUMANodes  int    `json:"numa_nodes"`
	Commit     string `json:"git_commit"`
}

func machineRecord() machine {
	m := machine{
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		L2:         readTrim("/sys/devices/system/cpu/cpu0/cache/index2/size"),
		L3:         readTrim("/sys/devices/system/cpu/cpu0/cache/index3/size"),
		MemTotal:   procField("/proc/meminfo", "MemTotal"),
		GoVersion:  runtime.Version(),
		SIMDLevel:  simd.Level(),
		NUMANodes:  numa.Default().NNodes(),
		Commit:     gitCommit(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				m.GOAMD64 = s.Value
			}
		}
	}
	return m
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// procField returns the value of the first "key : value" line of a /proc file.
func procField(path, key string) string {
	for _, line := range strings.Split(readTrim(path), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func gitCommit() string {
	head := readTrim(".git/HEAD")
	ref, isRef := strings.CutPrefix(head, "ref: ")
	if !isRef {
		return head
	}
	if c := readTrim(".git/" + ref); c != "unknown" {
		return c
	}
	for _, line := range strings.Split(readTrim(".git/packed-refs"), "\n") {
		if c, ok := strings.CutSuffix(line, " "+ref); ok {
			return c
		}
	}
	return "unknown"
}

// peakRSSMiB is the high-water mark of this process's resident set (VmHWM).
func peakRSSMiB() float64 {
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField("/proc/self/status", "VmHWM"), " kB"), 64)
	if err != nil {
		return 0
	}
	return kb / 1024
}

// cpuSeconds is the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
