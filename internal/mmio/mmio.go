// Package mmio reads and writes Matrix Market exchange files — the format
// the SuiteSparse collection (Table VI of the paper) ships in — plus a
// compact binary format. Supported Matrix Market variants: coordinate,
// real/integer/pattern, general/symmetric/skew-symmetric.
//
// The binary format is a 20-byte header (magic "PBSP", rows, cols, nnz)
// followed by the CSR's RowPtr (int64), ColIdx (int32) and Val (float64)
// arrays as their little-endian bytes. On a little-endian host those bytes
// are the arrays' own memory, so WriteBinary hands each array to the writer
// in one Write and ReadBinary fills each with one io.ReadFull: the codec
// moves bytes at memory speed and allocates nothing beyond the matrix it
// reads. Readers of untrusted input check the header's claim against what
// the input can hold (its size, or a LimitReader's limit) before allocating.
package mmio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"pbspgemm/internal/matrix"
)

// ErrHeader marks a structurally invalid or spec-violating header (Matrix
// Market or binary): bad magic, impossible dimensions, or a field/symmetry
// combination the format forbids.
var ErrHeader = errors.New("invalid header")

// ErrTruncated marks input that ends before the header's promised payload —
// distinct from ErrHeader (the header itself was readable and well-formed)
// and from transport errors (which are returned wrapped, preserving the
// underlying error for errors.Is).
var ErrTruncated = errors.New("truncated input")

// ErrTooLarge is the errors.Is sentinel every *SizeError matches: the input
// exceeded a caller-imposed byte limit (LimitReader, Read).
var ErrTooLarge = errors.New("input exceeds size limit")

// SizeError reports an input stream that delivered more than MaxBytes bytes.
// It is the typed error behind byte-limited reads of untrusted uploads; test
// with errors.As, or errors.Is against ErrTooLarge.
type SizeError struct {
	// MaxBytes is the limit the input exceeded.
	MaxBytes int64
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("mmio: input exceeds %d-byte limit", e.MaxBytes)
}

// Is reports ErrTooLarge as a match, so callers can class-check with
// errors.Is without naming the concrete type.
func (e *SizeError) Is(target error) bool { return target == ErrTooLarge }

// limitedReader passes through at most max+1 bytes: an input of exactly max
// bytes reads cleanly to EOF, while delivering the (max+1)-th byte arms the
// limit and the next Read returns *SizeError. The +1 slack never reaches a
// parser's output — it only lets the reader distinguish "exactly at the
// limit" from "past it" without buffering.
type limitedReader struct {
	r         io.Reader
	remaining int64
	max       int64
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.remaining <= 0 {
		return 0, &SizeError{MaxBytes: l.max}
	}
	if int64(len(p)) > l.remaining {
		p = p[:l.remaining]
	}
	n, err := l.r.Read(p)
	l.remaining -= int64(n)
	return n, err
}

// LimitReader wraps r so that consuming more than maxBytes bytes fails with a
// *SizeError (matching ErrTooLarge) instead of io.EOF. maxBytes <= 0 returns
// r unchanged. Unlike io.LimitReader, exhausting the limit is a hard typed
// error, not a silent truncation — the right behavior for untrusted uploads,
// where a truncated parse could otherwise succeed on a hostile prefix.
func LimitReader(r io.Reader, maxBytes int64) io.Reader {
	if maxBytes <= 0 {
		return r
	}
	return &limitedReader{r: r, remaining: maxBytes + 1, max: maxBytes}
}

// scanFail resolves a parse failure against the scanner's transport state:
// a read error (or a line over the buffer) makes the scanner deliver its
// buffered bytes as a partial final token, so a failed parse of that token
// must report the underlying error, not the mangled text.
func scanFail(sc *bufio.Scanner, fallback error) error {
	if err := sc.Err(); err != nil {
		return fmt.Errorf("mmio: read error: %w", err)
	}
	return fallback
}

// ReadMatrixMarket parses a Matrix Market coordinate stream into a canonical
// CSR matrix. Symmetric files are expanded to full storage (both triangles),
// matching SuiteSparse convention for SpGEMM benchmarking. Pattern files get
// value 1.0 for every entry.
func ReadMatrixMarket(r io.Reader) (*matrix.CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	// Header line: %%MatrixMarket matrix coordinate <field> <symmetry>
	if !sc.Scan() {
		// A failed first Scan is either a genuinely empty stream or a
		// transport/limit error on the very first read; scanFail tells them
		// apart.
		return nil, scanFail(sc, fmt.Errorf("mmio: empty input"))
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, scanFail(sc, fmt.Errorf("mmio: bad header %q", sc.Text()))
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("mmio: unsupported format %q (only coordinate)", header[2])
	}
	field := header[3]
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("mmio: unsupported field %q", field)
	}
	symmetry := header[4]
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("mmio: unsupported symmetry %q", symmetry)
	}
	if field == "pattern" && symmetry == "skew-symmetric" {
		// The Matrix Market spec forbids the combination: skew-symmetry
		// negates the mirrored values, and a pattern file has none to negate.
		return nil, fmt.Errorf("mmio: pattern files cannot be skew-symmetric: %w", ErrHeader)
	}

	// Skip comments, read size line.
	var rows, cols int64
	var nnz int64
	haveSize := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, scanFail(sc, fmt.Errorf("mmio: bad size line %q: %w", line, err))
		}
		haveSize = true
		break
	}
	if !haveSize {
		// Distinguish a transport failure (mid-stream read error, or a line
		// over the scanner's 1 MiB buffer) from a file that cleanly ends
		// before its size line.
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("mmio: reading size line: %w", err)
		}
		return nil, fmt.Errorf("mmio: missing size line: %w", ErrTruncated)
	}
	if rows <= 0 || cols <= 0 || rows > 1<<31-1 || cols > 1<<31-1 {
		return nil, fmt.Errorf("mmio: unsupported dimensions %dx%d: %w", rows, cols, ErrHeader)
	}

	coo := &matrix.COO{NumRows: int32(rows), NumCols: int32(cols)}
	var read int64
	for read < nnz && sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, scanFail(sc, fmt.Errorf("mmio: bad entry line %q", line))
		}
		i, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, scanFail(sc, fmt.Errorf("mmio: bad row index %q: %w", f[0], err))
		}
		j, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, scanFail(sc, fmt.Errorf("mmio: bad col index %q: %w", f[1], err))
		}
		if i < 1 || i > rows || j < 1 || j > cols {
			return nil, fmt.Errorf("mmio: entry (%d,%d) outside %dx%d", i, j, rows, cols)
		}
		v := 1.0
		if field != "pattern" {
			if len(f) < 3 {
				return nil, scanFail(sc, fmt.Errorf("mmio: missing value in %q", line))
			}
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, scanFail(sc, fmt.Errorf("mmio: bad value %q: %w", f[2], err))
			}
		}
		read++
		r32, c32 := int32(i-1), int32(j-1)
		coo.Row = append(coo.Row, r32)
		coo.Col = append(coo.Col, c32)
		coo.Val = append(coo.Val, v)
		if symmetry != "general" && r32 != c32 {
			sv := v
			if symmetry == "skew-symmetric" {
				sv = -v
			}
			coo.Row = append(coo.Row, c32)
			coo.Col = append(coo.Col, r32)
			coo.Val = append(coo.Val, sv)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mmio: reading entries (%d of %d read): %w", read, nnz, err)
	}
	if read < nnz {
		return nil, fmt.Errorf("mmio: expected %d entries, got %d: %w", nnz, read, ErrTruncated)
	}
	return coo.ToCSR(), nil
}

// ReadFile loads a Matrix Market file from disk.
func ReadFile(path string) (*matrix.CSR, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadMatrixMarket(bufio.NewReaderSize(f, 1<<20))
}

// WriteMatrixMarket writes m as a general real coordinate Matrix Market file.
func WriteMatrixMarket(w io.Writer, m *matrix.CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n",
		m.NumRows, m.NumCols, m.NNZ()); err != nil {
		return err
	}
	for i := int32(0); i < m.NumRows; i++ {
		for p := m.RowPtr[i]; p < m.RowPtr[i+1]; p++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.ColIdx[p]+1, m.Val[p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
