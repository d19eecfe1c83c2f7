package numa

import (
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"sync"
)

// Machine is the host's discovered memory system: how many NUMA nodes have
// CPUs. The engine does not act on it; benchmark machine records report
// NNodes.
type Machine struct {
	nodes int
}

// NNodes returns the number of CPU-bearing memory nodes (0 for a nil machine).
func (m *Machine) NNodes() int {
	if m == nil {
		return 0
	}
	return m.nodes
}

// DiscoverFS counts the CPU-bearing nodes of a /sys/devices/system/node-shaped
// tree: entries named nodeN whose cpulist file is not empty (a memory-only
// node is not a place threads run). Tests inject fstest.MapFS fixtures;
// Discover passes the live sysfs.
func DiscoverFS(fsys fs.FS) (*Machine, error) {
	entries, err := fs.ReadDir(fsys, ".")
	if err != nil {
		return nil, fmt.Errorf("numa: reading node dir: %w", err)
	}
	m := &Machine{}
	for _, e := range entries {
		name := e.Name()
		id, ok := strings.CutPrefix(name, "node")
		if _, err := strconv.Atoi(id); !ok || err != nil {
			continue // not a nodeN directory
		}
		raw, err := fs.ReadFile(fsys, name+"/cpulist")
		if err != nil {
			return nil, fmt.Errorf("numa: %s: %w", name, err)
		}
		if strings.TrimSpace(string(raw)) != "" {
			m.nodes++
		}
	}
	if m.nodes == 0 {
		return nil, fmt.Errorf("numa: no CPU-bearing nodes found")
	}
	return m, nil
}

// Discover counts the host's nodes from the live sysfs tree; where that
// cannot be read (off Linux, or an unreadable or empty tree) the host is one
// node.
func Discover() *Machine {
	return discover(os.DirFS("/sys/devices/system/node"))
}

func discover(fsys fs.FS) *Machine {
	m, err := DiscoverFS(fsys)
	if err != nil {
		return &Machine{nodes: 1}
	}
	return m
}

// Default returns the host machine, discovered once per process.
var Default = sync.OnceValue(Discover)
