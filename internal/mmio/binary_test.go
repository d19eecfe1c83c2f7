package mmio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"

	"pbspgemm/internal/gen"
	"pbspgemm/internal/matrix"
)

// encode is WriteBinary into a fresh buffer.
func encode(t testing.TB, m *matrix.CSR) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// allocatedBytes is the heap the call allocates, by runtime.MemStats.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestBinarySizeIsTheEncodedLength: BinarySize predicts the bytes WriteBinary
// writes, which lets a server state a reply's Content-Length up front.
func TestBinarySizeIsTheEncodedLength(t *testing.T) {
	for _, m := range []*matrix.CSR{gen.ER(64, 3, 1), gen.ER(1<<12, 8, 2), {NumRows: 3, RowPtr: make([]int64, 4)}} {
		if got, want := int64(len(encode(t, m))), BinarySize(m); got != want {
			t.Fatalf("%dx%d nnz %d: wrote %d bytes, BinarySize says %d", m.NumRows, m.NumCols, m.NNZ(), got, want)
		}
	}
}

// TestBinarySwapPathSameBytes forces the big-endian code path (each array
// converted through a bounded chunk) on this little-endian host: it must
// write the same bytes as the byte view, chunk boundaries included, and read
// them back to the same matrix.
func TestBinarySwapPathSameBytes(t *testing.T) {
	if !hostLE {
		t.Skip("the swap path is the default on this host")
	}
	// ER 2^13·d8: Val is 512 KiB, eight swap chunks; ColIdx four.
	mats := []*matrix.CSR{gen.ER(1<<13, 8, 3), gen.RMAT(8, 6, gen.Graph500Params, 2), {NumRows: 2, RowPtr: make([]int64, 3)}}
	var view [][]byte
	for _, m := range mats {
		view = append(view, encode(t, m))
	}
	hostLE = false
	defer func() { hostLE = true }()
	for i, m := range mats {
		swapped := encode(t, m)
		if !bytes.Equal(swapped, view[i]) {
			t.Fatalf("matrix %d: the swap path wrote different bytes", i)
		}
		back, err := ReadBinary(bytes.NewReader(swapped))
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal(m, back, 0) {
			t.Fatalf("matrix %d: the swap path read back a different matrix", i)
		}
	}
}

// TestBinaryCodecAllocs: writing allocates a constant number of objects, none
// the size of the payload, and reading allocates the matrix and a constant —
// at 1 K and at 260 K entries alike.
func TestBinaryCodecAllocs(t *testing.T) {
	small, large := gen.ER(1<<8, 4, 1), gen.ER(1<<15, 8, 2)
	writes := func(m *matrix.CSR) float64 {
		return testing.AllocsPerRun(20, func() { _ = WriteBinary(io.Discard, m) })
	}
	if ws, wl := writes(small), writes(large); ws != wl || wl > 1 {
		t.Fatalf("WriteBinary allocates %v objects at %d entries and %v at %d, want the same, at most 1",
			ws, small.NNZ(), wl, large.NNZ())
	}
	if got := allocatedBytes(func() { _ = WriteBinary(io.Discard, large) }); got > 1<<10 {
		t.Fatalf("WriteBinary of %d entries allocated %d bytes", large.NNZ(), got)
	}
	reads := func(m *matrix.CSR) float64 {
		enc := encode(t, m)
		return testing.AllocsPerRun(20, func() {
			if _, err := ReadBinary(bytes.NewReader(enc)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if rs, rl := reads(small), reads(large); rs != rl {
		t.Fatalf("ReadBinary allocates %v objects at %d entries and %v at %d, want the same", rs, small.NNZ(), rl, large.NNZ())
	}
	enc := encode(t, large)
	got := allocatedBytes(func() {
		if _, err := ReadBinary(bytes.NewReader(enc)); err != nil {
			t.Fatal(err)
		}
	})
	// The constant covers the header buffer and the runtime's rounding of each
	// large array up to whole 8 KiB pages.
	if matrixBytes := uint64(len(enc) - binaryHeaderBytes); got > matrixBytes+32<<10 {
		t.Fatalf("ReadBinary allocated %d bytes for a %d-byte matrix", got, matrixBytes)
	}
}

// TestReadBinaryClaimOverLimit: a 20-byte stream whose header claims 50 M
// entries (600 MB) behind a LimitReader fails with ErrTooLarge before
// anything is allocated for the claim.
func TestReadBinaryClaimOverLimit(t *testing.T) {
	hdr := binHeader(1<<20, 1<<20, 50_000_000)
	var err error
	got := allocatedBytes(func() {
		_, err = ReadBinary(LimitReader(io.MultiReader(bytes.NewReader(hdr)), 256<<20))
	})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if got >= 1<<20 {
		t.Fatalf("rejecting the claim allocated %d bytes", got)
	}
	// Under the limit the same stream is read, and it ends early: ErrTruncated,
	// with the EOF still in the chain.
	small := binHeader(1<<10, 1<<10, 100)
	_, err = ReadBinary(LimitReader(io.MultiReader(bytes.NewReader(small)), 1<<20))
	if !errors.Is(err, ErrTruncated) || !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want ErrTruncated wrapping io.EOF", err)
	}
}

// TestReadSniffsTheFormat: Read takes either format and holds both to its limit.
func TestReadSniffsTheFormat(t *testing.T) {
	m := gen.ER(128, 4, 1)
	var text bytes.Buffer
	if err := WriteMatrixMarket(&text, m); err != nil {
		t.Fatal(err)
	}
	bin := encode(t, m)
	for name, in := range map[string][]byte{"text": text.Bytes(), "binary": bin} {
		got, err := Read(io.MultiReader(bytes.NewReader(in)), int64(len(in)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !matrix.Equal(m, got, 0) {
			t.Fatalf("%s: read a different matrix", name)
		}
		if _, err := Read(io.MultiReader(bytes.NewReader(in)), int64(len(in))-2); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s over the limit: err = %v, want ErrTooLarge", name, err)
		}
	}
	if _, err := Read(strings.NewReader("PBSP"), 0); err == nil {
		t.Fatal("a bare magic parsed")
	}
}

// FuzzReadBinary: over arbitrary bytes, on an input that tells its size and
// on a limited stream, ReadBinary never panics, never allocates more than the
// input (or the limit) can hold, and every matrix it accepts is valid and
// written back by WriteBinary byte for byte.
func FuzzReadBinary(f *testing.F) {
	f.Add(encode(f, gen.ER(16, 2, 1)), uint16(0))
	f.Add(encode(f, &matrix.CSR{NumRows: 2, NumCols: 3, RowPtr: []int64{0, 1, 2}, ColIdx: []int32{2, 0}, Val: []float64{1, -1}}), uint16(7))
	f.Add(binHeader(1<<20, 1<<20, 50_000_000), uint16(100))
	f.Add(binHeader(3, 3, 2), uint16(64))
	f.Add([]byte("PBSP"), uint16(1))
	f.Fuzz(func(t *testing.T, data []byte, slack uint16) {
		limit := int64(len(data)) + int64(slack)
		for _, path := range []struct {
			name  string
			r     func() io.Reader
			bound int64
		}{
			{"sized", func() io.Reader { return bytes.NewReader(data) }, int64(len(data))},
			{"limited", func() io.Reader { return LimitReader(io.MultiReader(bytes.NewReader(data)), limit) }, limit},
		} {
			var m *matrix.CSR
			var err error
			got := allocatedBytes(func() { m, err = ReadBinary(path.r()) })
			// The matrix itself is at most the bound; the slack covers the
			// header buffer, the error and what the runtime allocates meanwhile.
			if got > uint64(path.bound)+64<<10 {
				t.Fatalf("%s: %d-byte input (bound %d) allocated %d bytes", path.name, len(data), path.bound, got)
			}
			if err != nil {
				continue
			}
			if verr := m.Validate(); verr != nil {
				t.Fatalf("%s: accepted an invalid matrix: %v", path.name, verr)
			}
			if enc := encode(t, m); !bytes.Equal(enc, data[:len(enc)]) {
				t.Fatalf("%s: accepted %d bytes that WriteBinary does not write back", path.name, len(enc))
			}
		}
	})
}

// TestBinHeaderMatchesTheWriter keeps the tests' hand-made headers honest.
func TestBinHeaderMatchesTheWriter(t *testing.T) {
	m := gen.ER(16, 2, 1)
	if !bytes.Equal(binHeader(m.NumRows, m.NumCols, m.NNZ()), encode(t, m)[:binaryHeaderBytes]) {
		t.Fatal("binHeader and WriteBinary disagree")
	}
	if binary.LittleEndian.Uint32(encode(t, m)) != binaryMagic {
		t.Fatal("magic is not little-endian")
	}
}
