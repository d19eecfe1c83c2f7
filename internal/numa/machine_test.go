package numa

import (
	"reflect"
	"testing"
	"testing/fstest"
)

func TestParseCPUList(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"", nil},
		{"0", []int{0}},
		{"0-3", []int{0, 1, 2, 3}},
		{"0-2,5,7-8", []int{0, 1, 2, 5, 7, 8}},
		{"0-23,48-71\n", append(seq(0, 23), seq(48, 71)...)},
		{" 4 , 2 ", []int{2, 4}}, // whitespace tolerated, output sorted
	}
	for _, c := range cases {
		got, err := ParseCPUList(c.in)
		if err != nil {
			t.Fatalf("ParseCPUList(%q): %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("ParseCPUList(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"x", "3-1", "1-x", "1,,y"} {
		if _, err := ParseCPUList(bad); err == nil {
			t.Fatalf("ParseCPUList(%q): expected error", bad)
		}
	}
}

func seq(lo, hi int) []int {
	s := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		s = append(s, i)
	}
	return s
}

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
	if m.Source != "sysfs" {
		t.Fatalf("Source = %q, want sysfs", m.Source)
	}
	if m.NNodes() != 2 {
		t.Fatalf("NNodes = %d, want 2", m.NNodes())
	}
	want0 := append(seq(0, 23), seq(48, 71)...)
	want1 := append(seq(24, 47), seq(72, 95)...)
	if !reflect.DeepEqual(m.Nodes[0], want0) || !reflect.DeepEqual(m.Nodes[1], want1) {
		t.Fatalf("nodes = %v / %v", m.Nodes[0], m.Nodes[1])
	}
}

// TestDiscoverFSMemoryOnlyNode: CPU-less nodes (CXL/optane expanders) are
// dropped — no thread runs on them.
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
	if !reflect.DeepEqual(m.Nodes[0], seq(0, 7)) || !reflect.DeepEqual(m.Nodes[1], seq(8, 15)) {
		t.Fatalf("nodes = %v", m.Nodes)
	}
}

func TestDiscoverFSSingleNode(t *testing.T) {
	fsys := fstest.MapFS{"node0/cpulist": {Data: []byte("0-95\n")}}
	m, err := DiscoverFS(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNodes() != 1 || len(m.Nodes[0]) != 96 {
		t.Fatalf("got %d nodes, %d cpus", m.NNodes(), len(m.Nodes[0]))
	}
}

func TestDiscoverFSEmpty(t *testing.T) {
	if _, err := DiscoverFS(fstest.MapFS{"online": {Data: []byte("0\n")}}); err == nil {
		t.Fatal("expected error on a tree with no nodes")
	}
}

// TestDiscover: the live host must always produce a machine — sysfs on
// Linux, the Table VII fallback elsewhere — with at least one CPU.
func TestDiscover(t *testing.T) {
	m := Discover()
	if m.NNodes() < 1 || len(m.Nodes[0]) == 0 {
		t.Fatalf("Discover: %+v", m)
	}
	if m != Default() {
		// Default caches its own Discover result; both must be usable.
		if Default().NNodes() < 1 {
			t.Fatal("Default returned an empty machine")
		}
	}
}

func TestFallbackIsTableVII(t *testing.T) {
	m := Fallback()
	if m.Source != "fallback" || m.NNodes() != 2 {
		t.Fatalf("fallback: %+v", m)
	}
	if len(m.Nodes[0]) != PaperSkylake.SocketsPer || len(m.Nodes[1]) != PaperSkylake.SocketsPer {
		t.Fatalf("fallback cores per socket = %d/%d, want %d",
			len(m.Nodes[0]), len(m.Nodes[1]), PaperSkylake.SocketsPer)
	}
	if m.Topo != PaperSkylake {
		t.Fatalf("fallback topology = %+v", m.Topo)
	}
}
