package numa

import (
	"fmt"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Machine is a discovered NUMA topology: which CPUs belong to which memory
// node, plus the bandwidth/latency model used for analytic predictions. The
// engine does not act on it — benchmark machine records report NNodes, and
// cmd/experiments' Table VII / Fig. 14 model reads Topo.
type Machine struct {
	// Nodes[i] lists the CPU ids of NUMA node i, ascending.
	Nodes [][]int
	// Source records where the topology came from: "sysfs" for a live
	// /sys/devices/system/node parse, "fallback" for the Table VII model,
	// whose CPU ids are a model of the paper's dual Skylake, not this host.
	Source string
	// Topo is the bandwidth/latency model paired with the machine; the
	// fallback uses the paper's Table VII numbers (PaperSkylake), which
	// MeasureLatencyNs can recalibrate against the host.
	Topo Topology
}

// NNodes returns the number of memory nodes (0 for a nil machine).
func (m *Machine) NNodes() int {
	if m == nil {
		return 0
	}
	return len(m.Nodes)
}

// ParseCPUList parses the kernel's cpulist format ("0-23,48-71") into the
// sorted list of CPU ids. Empty (or all-whitespace) input is an empty node.
func ParseCPUList(s string) ([]int, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var cpus []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if lo, hi, ok := strings.Cut(part, "-"); ok {
			a, err := strconv.Atoi(strings.TrimSpace(lo))
			if err != nil {
				return nil, fmt.Errorf("numa: bad cpulist range %q: %w", part, err)
			}
			b, err := strconv.Atoi(strings.TrimSpace(hi))
			if err != nil {
				return nil, fmt.Errorf("numa: bad cpulist range %q: %w", part, err)
			}
			if b < a {
				return nil, fmt.Errorf("numa: inverted cpulist range %q", part)
			}
			for c := a; c <= b; c++ {
				cpus = append(cpus, c)
			}
		} else {
			c, err := strconv.Atoi(part)
			if err != nil {
				return nil, fmt.Errorf("numa: bad cpulist entry %q: %w", part, err)
			}
			cpus = append(cpus, c)
		}
	}
	sort.Ints(cpus)
	return cpus, nil
}

// DiscoverFS parses a /sys/devices/system/node-shaped tree: entries named
// nodeN, each with a cpulist file. It returns the nodes sorted by id. Tests
// inject fstest.MapFS fixtures; Discover passes the live sysfs on Linux.
func DiscoverFS(fsys fs.FS) (*Machine, error) {
	entries, err := fs.ReadDir(fsys, ".")
	if err != nil {
		return nil, fmt.Errorf("numa: reading node dir: %w", err)
	}
	type node struct {
		id   int
		cpus []int
	}
	var nodes []node
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "node") {
			continue
		}
		id, err := strconv.Atoi(name[len("node"):])
		if err != nil {
			continue // node-something that isn't a node directory
		}
		raw, err := fs.ReadFile(fsys, name+"/cpulist")
		if err != nil {
			return nil, fmt.Errorf("numa: node %d: %w", id, err)
		}
		cpus, err := ParseCPUList(string(raw))
		if err != nil {
			return nil, fmt.Errorf("numa: node %d: %w", id, err)
		}
		if len(cpus) == 0 {
			continue // memory-only node: not a place threads run
		}
		nodes = append(nodes, node{id: id, cpus: cpus})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("numa: no CPU-bearing nodes found")
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].id < nodes[j].id })
	m := &Machine{Source: "sysfs", Topo: PaperSkylake}
	for _, n := range nodes {
		m.Nodes = append(m.Nodes, n.cpus)
	}
	return m, nil
}

// Fallback is the Table VII machine: two sockets of 24 cores with the
// paper's measured bandwidths and latencies. It exists so the analytic
// dual-socket predictions (PredictDual) always have a machine to reason
// about; its CPU ids describe the paper's Skylake 8160, not this host
// (Source == "fallback").
func Fallback() *Machine {
	per := PaperSkylake.SocketsPer
	n0 := make([]int, per)
	n1 := make([]int, per)
	for i := 0; i < per; i++ {
		n0[i] = i
		n1[i] = per + i
	}
	return &Machine{Nodes: [][]int{n0, n1}, Source: "fallback", Topo: PaperSkylake}
}

var (
	defaultOnce sync.Once
	defaultM    *Machine
)

// Default returns the host machine, discovered once per process: the live
// sysfs topology on Linux, the Table VII fallback elsewhere (or when sysfs
// is unreadable).
func Default() *Machine {
	defaultOnce.Do(func() { defaultM = Discover() })
	return defaultM
}
