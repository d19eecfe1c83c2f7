package core

import (
	"testing"
	"unsafe"

	"pbspgemm/internal/gen"
)

// The propagation-blocking invariant — every steady-state flush moves whole
// 64-byte lines to a line-aligned destination — is a property of the flush
// schedule, not of the output (tuple order in a bin does not depend on where
// flushes cut, so the product is bit-identical under any schedule). These
// tests pin the schedule itself.

// flushRecord is one flush as flushSpan scheduled it.
type flushRecord struct{ src, dst, n int64 }

// simulateFlushes fills one (worker, bin) pair's local bin tuple by tuple
// exactly as the expand loops do — seed the fill level with the cursor's
// phase, flush on reaching capT, drain at the end — and returns the flushes.
func simulateFlushes(cursor, length int64, capT int32) []flushRecord {
	const bin = 3 // a non-zero slot, so src carries the bin's base
	lens := make([]int32, bin+1)
	cursors := make([]int64, bin+1)
	cursors[bin] = cursor
	lens[bin] = flushPhase(cursor) // expandPanel's seeding
	var out []flushRecord
	flush := func() {
		if src, dst, n := flushSpan(bin, lens, cursors, capT); n > 0 {
			out = append(out, flushRecord{src, dst, n})
		}
	}
	for i := int64(0); i < length; i++ {
		if lens[bin] == capT {
			flush()
		}
		lens[bin]++
	}
	flush() // drain
	flush() // a second drain finds nothing pending
	return out
}

func TestFlushSpanSchedule(t *testing.T) {
	for _, capT := range []int32{16, 32, 64, 128} {
		c := int64(capT)
		lengths := []int64{0, 1, 15, 16, 17, c - 1, c, c + 1, 2*c - 1, 2 * c, 2*c + 1, 5*c + 7, 9 * c}
		for cursor := int64(0); cursor < 64; cursor++ {
			for _, length := range lengths {
				fl := simulateFlushes(cursor, length, capT)
				next := cursor
				for i, f := range fl {
					if f.dst != next {
						t.Fatalf("cap=%d cursor=%d len=%d: flush %d lands at %d, want %d (ranges must tile)",
							capT, cursor, length, i, f.dst, next)
					}
					if want := 3*c + f.dst%flushAlign; f.src != want {
						t.Fatalf("cap=%d cursor=%d len=%d: flush %d reads local offset %d, want %d",
							capT, cursor, length, i, f.src, want)
					}
					if f.n <= 0 || f.src+f.n > 4*c {
						t.Fatalf("cap=%d cursor=%d len=%d: flush %d of %d tuples from %d overruns the bin's slot",
							capT, cursor, length, i, f.n, f.src)
					}
					if i > 0 && f.dst%flushAlign != 0 {
						t.Fatalf("cap=%d cursor=%d len=%d: flush %d starts at %d, not on a %d-tuple boundary",
							capT, cursor, length, i, f.dst, flushAlign)
					}
					if i > 0 && i < len(fl)-1 && f.n != c {
						t.Fatalf("cap=%d cursor=%d len=%d: steady-state flush %d moves %d tuples, want %d",
							capT, cursor, length, i, f.n, c)
					}
					if i == 0 && len(fl) > 1 && (f.dst+f.n)%flushAlign != 0 {
						t.Fatalf("cap=%d cursor=%d len=%d: first flush ends at %d, off the boundary",
							capT, cursor, length, f.dst+f.n)
					}
					next += f.n
				}
				if next != cursor+length {
					t.Fatalf("cap=%d cursor=%d len=%d: flushed up to %d, reserved up to %d",
						capT, cursor, length, next, cursor+length)
				}
			}
		}
	}
}

// TestLocalBinTuples: a LocalBinBytes request becomes a capacity that is a
// multiple of 16 tuples, never above the request except for sub-line
// requests, which run at one line of keys.
func TestLocalBinTuples(t *testing.T) {
	for _, tc := range []struct {
		bytes      int
		tupleBytes int64
		want       int32
	}{
		{512, SqueezedTupleBytes, 32}, // 42 rounds down
		{512, NarrowTupleBytes, 64},
		{512, PatternTupleBytes, 128},
		{4096, SqueezedTupleBytes, 336},
		{16, 16, 16}, // sub-line requests round up
		{64, SqueezedTupleBytes, 16},
		{1, PatternTupleBytes, 16},
		{255, 16, 16},
		{256, 16, 16},
		{767, 16, 32},
		{1024, 5, 192}, // the generic layout over 1-byte values
	} {
		if got := LocalBinTuples(tc.bytes, tc.tupleBytes); got != tc.want {
			t.Errorf("LocalBinTuples(%d, %d) = %d, want %d", tc.bytes, tc.tupleBytes, got, tc.want)
		}
	}
}

// TestLocalBinsSizedForCapacity: the pooled local planes hold threads × nbins
// slots of the rounded capacity, for sub-line requests too, so no local bin
// can overrun its slot.
func TestLocalBinsSizedForCapacity(t *testing.T) {
	a := gen.ER(300, 5, 11)
	acsc := a.ToCSC()
	for _, lbb := range []int{1, 16, 64, 512, 4096} {
		ws := NewWorkspace()
		_, st, err := Multiply(acsc, a, Options{Threads: 3, LocalBinBytes: lbb, Workspace: ws})
		if err != nil {
			t.Fatal(err)
		}
		capT := int(LocalBinTuples(lbb, st.TupleBytes))
		if want := 3 * st.NBins * capT; len(ws.localKeys) != want || len(ws.f64.localVals) != want {
			t.Fatalf("LocalBinBytes=%d: local planes hold %d keys / %d values, want %d",
				lbb, len(ws.localKeys), len(ws.f64.localVals), want)
		}
	}
}

// TestTuplePlanesLineAligned: the 16-tuple cursor boundaries are cache-line
// boundaries only if the tuple planes themselves start on one. Go's allocator
// page-aligns large objects, which is what the arenas that matter are; this
// asserts it so a runtime change shows up here, not as a silent slowdown.
// Correctness never depends on it — the small-input tests run on whatever
// alignment the size classes give.
func TestTuplePlanesLineAligned(t *testing.T) {
	a := gen.ER(4096, 8, 5)
	acsc := a.ToCSC()
	aligned := func(name string, p unsafe.Pointer) {
		t.Helper()
		if uintptr(p)%64 != 0 {
			t.Errorf("%s plane starts at %#x, not on a 64-byte line", name, uintptr(p))
		}
	}
	ws := NewWorkspace()
	if _, _, err := Multiply(acsc, a, Options{Workspace: ws}); err != nil {
		t.Fatal(err)
	}
	aligned("squeezed key", unsafe.Pointer(&ws.tupleKeys[0]))
	aligned("squeezed value", unsafe.Pointer(&ws.f64.tupleVals[0]))
	if _, _, _, err := multiplyNarrow(acsc, make([]float32, len(acsc.Val)), a, make([]float32, len(a.Val)), Options{Workspace: ws}); err != nil {
		t.Fatal(err)
	}
	aligned("narrow value", unsafe.Pointer(&valuesOf[float32](ws).tupleVals[0]))
}
