package numa

import (
	"testing"
	"testing/fstest"
)

// TestDiscoverFSDualSocket parses a dual-socket fixture tree shaped like the
// paper's Skylake 8160 (hyperthreads interleaved across sockets, as Linux
// numbers them).
func TestDiscoverFSDualSocket(t *testing.T) {
	fsys := fstest.MapFS{
		"node0/cpulist": {Data: []byte("0-23,48-71\n")},
		"node1/cpulist": {Data: []byte("24-47,72-95\n")},
		// Non-node entries the real sysfs dir also contains.
		"possible":     {Data: []byte("0-1\n")},
		"online":       {Data: []byte("0-1\n")},
		"has_cpu":      {Data: []byte("0-1\n")},
		"has_memory":   {Data: []byte("0-1\n")},
		"power/async":  {Data: []byte("n/a\n")},
		"uevent":       {Data: []byte("")},
		"node_dummy/x": {Data: []byte("")}, // "node" prefix, non-numeric suffix
	}
	m, err := DiscoverFS(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNodes() != 2 {
		t.Fatalf("NNodes = %d, want 2", m.NNodes())
	}
}

// TestDiscoverFSMemoryOnlyNode: CPU-less nodes (CXL/optane expanders) are
// not counted — no thread runs on them.
func TestDiscoverFSMemoryOnlyNode(t *testing.T) {
	fsys := fstest.MapFS{
		"node0/cpulist": {Data: []byte("0-7\n")},
		"node1/cpulist": {Data: []byte("\n")},
		"node2/cpulist": {Data: []byte("8-15\n")},
	}
	m, err := DiscoverFS(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNodes() != 2 {
		t.Fatalf("NNodes = %d, want 2 (memory-only node dropped)", m.NNodes())
	}
}

func TestDiscoverFSSingleNode(t *testing.T) {
	m, err := DiscoverFS(fstest.MapFS{"node0/cpulist": {Data: []byte("0-95\n")}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNodes() != 1 {
		t.Fatalf("got %d nodes, want 1", m.NNodes())
	}
}

func TestDiscoverFSEmpty(t *testing.T) {
	if _, err := DiscoverFS(fstest.MapFS{"online": {Data: []byte("0\n")}}); err == nil {
		t.Fatal("expected error on a tree with no nodes")
	}
}

// TestDiscover: the live host always produces a machine of at least one
// node, and Default caches one.
func TestDiscover(t *testing.T) {
	if n := Discover().NNodes(); n < 1 {
		t.Fatalf("Discover: %d nodes", n)
	}
	if Default() != Default() || Default().NNodes() < 1 {
		t.Fatal("Default must return one cached, non-empty machine")
	}
}

// TestFallbackIsOneNode: a host whose node tree cannot be read, or holds no
// CPU-bearing node, is reported as one node — not as the paper's two sockets.
func TestFallbackIsOneNode(t *testing.T) {
	for name, fsys := range map[string]fstest.MapFS{
		"unreadable node": {"node0": {Data: []byte("a file, not a directory")}},
		"no nodes":        {"online": {Data: []byte("0\n")}},
		"memory only":     {"node0/cpulist": {Data: []byte("\n")}},
	} {
		if n := discover(fsys).NNodes(); n != 1 {
			t.Fatalf("%s: fallback has %d nodes, want 1", name, n)
		}
	}
	var nilMachine *Machine
	if nilMachine.NNodes() != 0 {
		t.Fatal("a nil machine has no nodes")
	}
}
