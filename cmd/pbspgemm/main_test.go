package main

import (
	"testing"

	"pbspgemm"
)

// TestParseAlgo: every name the -algo flag documents is accepted, in any case,
// and the algorithms the command no longer offers are refused.
func TestParseAlgo(t *testing.T) {
	cases := map[string]pbspgemm.Algorithm{
		"pb":      pbspgemm.PB,
		"PB":      pbspgemm.PB,
		"heap":    pbspgemm.Heap,
		"hash":    pbspgemm.Hash,
		"HashVec": pbspgemm.HashVec,
		"spa":     pbspgemm.SPA,
		"auto":    pbspgemm.Auto,
	}
	for in, want := range cases {
		got, err := pbspgemm.ParseAlgorithm(in)
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, want %v", in, got, want)
		}
	}
	for _, bad := range []string{"gustavson", "esc", "outerheap"} {
		if _, err := pbspgemm.ParseAlgorithm(bad); err == nil {
			t.Errorf("ParseAlgorithm(%q): expected an unknown-algorithm error", bad)
		}
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"0":     0,
		"1024":  1024,
		"4K":    4 << 10,
		"4k":    4 << 10,
		"512M":  512 << 20,
		"2G":    2 << 30,
		"1T":    1 << 40,
		" 64k ": 64 << 10,
	}
	for in, want := range cases {
		got, err := parseBytes(in)
		if err != nil {
			t.Fatalf("parseBytes(%q): %v", in, err)
		}
		if got != want {
			t.Errorf("parseBytes(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"", "x", "12X", "-5", "G"} {
		if _, err := parseBytes(bad); err == nil {
			t.Errorf("parseBytes(%q): expected error", bad)
		}
	}
}
