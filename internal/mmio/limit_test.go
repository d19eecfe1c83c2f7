package mmio

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"

	"pbspgemm/internal/gen"
)

const smallMM = `%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.5
2 2 -3
`

func TestReadMatrixMarketLimitedOverLimit(t *testing.T) {
	_, err := Read(strings.NewReader(smallMM), 10)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	var se *SizeError
	if !errors.As(err, &se) || se.MaxBytes != 10 {
		t.Fatalf("got %v, want SizeError{MaxBytes:10}", err)
	}
}

func TestReadMatrixMarketLimitedExactlyAtLimit(t *testing.T) {
	m, err := Read(strings.NewReader(smallMM), int64(len(smallMM)))
	if err != nil {
		t.Fatalf("input of exactly maxBytes must parse: %v", err)
	}
	if m.NumRows != 2 || m.NNZ() != 2 {
		t.Fatalf("got %dx%d nnz=%d", m.NumRows, m.NumCols, m.NNZ())
	}
}

func TestReadMatrixMarketLimitedUnlimited(t *testing.T) {
	for _, max := range []int64{0, -1} {
		if _, err := Read(strings.NewReader(smallMM), max); err != nil {
			t.Fatalf("maxBytes=%d must disable the limit: %v", max, err)
		}
	}
}

func TestLimitReaderPassthrough(t *testing.T) {
	if r := LimitReader(strings.NewReader("abc"), 0); r != nil {
		got, err := io.ReadAll(r)
		if err != nil || string(got) != "abc" {
			t.Fatalf("passthrough read: %q %v", got, err)
		}
	}
	// Under the limit: reads to EOF untouched.
	got, err := io.ReadAll(LimitReader(strings.NewReader("abc"), 3))
	if err != nil || string(got) != "abc" {
		t.Fatalf("at-limit read: %q %v", got, err)
	}
	// One byte over: typed error instead of silent truncation.
	_, err = io.ReadAll(LimitReader(strings.NewReader("abcd"), 3))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

func TestLimitReaderGuardsBinaryReads(t *testing.T) {
	var buf bytes.Buffer
	m := gen.ER(64, 3, 1)
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := ReadBinary(LimitReader(bytes.NewReader(full), int64(len(full)))); err != nil {
		t.Fatalf("binary read at limit: %v", err)
	}
	// The limiter grants one byte of slack (so exactly-at-limit inputs reach
	// EOF); two under the payload size guarantees a withheld byte.
	_, err := ReadBinary(LimitReader(bytes.NewReader(full), int64(len(full))-2))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}
