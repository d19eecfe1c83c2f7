package mmio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pbspgemm/internal/matrix"
)

const (
	binaryMagic       = 0x50425350 // "PBSP" as a little-endian word
	binaryHeaderBytes = 20         // magic (4), rows (4), cols (4), nnz (8)
	// maxUnsizedBinaryBytes caps the payload a header may claim when nothing
	// bounds the input: far above any file the harness writes, far below the
	// exabytes a corrupt header can claim.
	maxUnsizedBinaryBytes = int64(64) << 30
	// swapChunkBytes bounds the buffer a big-endian host encodes an array through.
	swapChunkBytes = 64 << 10
)

// hostLE reports whether the host stores words little-endian, so that an
// array's memory already is its encoding. Tests clear it to run the swap path.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// payload is m's arrays in the order the binary format stores them, each as
// its memory's bytes; payloadWords are their word sizes.
func payload(m *matrix.CSR) [3][]byte {
	return [3][]byte{matrix.AsBytes(m.RowPtr), matrix.AsBytes(m.ColIdx), matrix.AsBytes(m.Val)}
}

var payloadWords = [3]int{8, 4, 8}

// swapWords fills dst from the front of src a word at a time, converting
// between host and little-endian order: an identity on a little-endian host, a
// byte reversal on a big-endian one, so it serves both directions and dst may
// be src.
func swapWords(dst, src []byte, word int) {
	le, ne := binary.LittleEndian, binary.NativeEndian
	for i := 0; i < len(dst); i += word {
		if word == 8 {
			le.PutUint64(dst[i:], ne.Uint64(src[i:]))
		} else {
			le.PutUint32(dst[i:], ne.Uint32(src[i:]))
		}
	}
}

// BinarySize is the length of m's binary encoding.
func BinarySize(m *matrix.CSR) int64 {
	return binaryHeaderBytes + int64(len(m.RowPtr))*8 + int64(len(m.ColIdx))*4 + int64(len(m.Val))*8
}

// WriteBinary writes m in the binary format (see the package doc) in four
// writes: the header, then each array's own memory, so nothing the size of the
// payload is allocated. A big-endian host swaps each array through one chunk
// of at most 64 KiB.
func WriteBinary(w io.Writer, m *matrix.CSR) error {
	var hdr [binaryHeaderBytes]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], binaryMagic)
	le.PutUint32(hdr[4:], uint32(m.NumRows))
	le.PutUint32(hdr[8:], uint32(m.NumCols))
	le.PutUint64(hdr[12:], uint64(m.NNZ()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	var swap []byte
	if !hostLE {
		swap = make([]byte, swapChunkBytes)
	}
	for i, b := range payload(m) {
		for len(b) > 0 {
			chunk := b
			if !hostLE {
				chunk = swap[:min(len(b), len(swap))]
				swapWords(chunk, b, payloadWords[i])
			}
			if _, err := w.Write(chunk); err != nil {
				return err
			}
			b = b[len(chunk):]
		}
	}
	return nil
}

// boundOf is what ReadBinary knows of r before reading it: exactly n bytes
// remain (a reader that tells its length: bytes.Reader, strings.Reader,
// bytes.Buffer), at most n may be read (a LimitReader over anything longer or
// unknown), or nothing (n < 0).
func boundOf(r io.Reader) (n int64, exact bool) {
	switch v := r.(type) {
	case *limitedReader:
		if n, exact := boundOf(v.r); exact && n < v.remaining {
			return n, true
		}
		return max(v.remaining-1, 0), false
	case interface{ Len() int }:
		return int64(v.Len()), true
	}
	return -1, false
}

// ReadBinary reads a matrix written by WriteBinary. The header is validated
// before anything is allocated: dimensions must be plausible and the claimed
// payload must fit what r can hold — an input that tells its length and holds
// less is ErrTruncated, a LimitReader whose limit is less is ErrTooLarge, and a
// stream may claim up to a 64 GiB sanity cap. A stream that ends before the
// payload does is ErrTruncated too. Each array is filled by one io.ReadFull.
func ReadBinary(r io.Reader) (*matrix.CSR, error) {
	n, exact := boundOf(r)
	return readBinary(r, n, exact)
}

func readBinary(r io.Reader, n int64, exact bool) (*matrix.CSR, error) {
	var hdr [binaryHeaderBytes]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, readError("header", err)
	}
	le := binary.LittleEndian
	if magic := le.Uint32(hdr[0:]); magic != binaryMagic {
		return nil, fmt.Errorf("mmio: bad binary magic %#x: %w", magic, ErrHeader)
	}
	rows, cols, nnz := int32(le.Uint32(hdr[4:])), int32(le.Uint32(hdr[8:])), int64(le.Uint64(hdr[12:]))
	// The claim is (rows+1)×8 RowPtr + nnz×(4+8) ColIdx/Val bytes; the nnz
	// bound keeps that arithmetic from overflowing.
	if rows < 0 || cols < 0 || nnz < 0 || (rows == 0 && nnz > 0) || nnz > (int64(1)<<62)/12 {
		return nil, fmt.Errorf("mmio: corrupt binary header (%dx%d, %d nnz): %w", rows, cols, nnz, ErrHeader)
	}
	need, avail := (int64(rows)+1)*8+nnz*12, n-binaryHeaderBytes
	switch {
	case exact && need > avail:
		return nil, fmt.Errorf("mmio: header claims %d payload bytes, input has %d: %w", need, avail, ErrTruncated)
	case n >= 0 && need > avail:
		return nil, fmt.Errorf("mmio: header claims %d payload bytes, the limit leaves %d: %w", need, avail, ErrTooLarge)
	case n < 0 && need > maxUnsizedBinaryBytes:
		return nil, fmt.Errorf("mmio: header claims %d payload bytes from a stream (cap %d): %w",
			need, maxUnsizedBinaryBytes, ErrHeader)
	}
	m := matrix.NewCSR(rows, cols, nnz)
	for i, b := range payload(m) {
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, readError("payload", err)
		}
		if !hostLE {
			swapWords(b, b, payloadWords[i])
		}
	}
	return m, m.Validate()
}

// readError reports a stream that ended early as ErrTruncated, keeping the EOF
// in the chain, and passes transport and limit errors through.
func readError(part string, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("mmio: binary %s: %w: %w", part, ErrTruncated, err)
	}
	return fmt.Errorf("mmio: binary %s: %w", part, err)
}

// Read parses one matrix in either format, binary recognised by its magic,
// consuming at most maxBytes from r (<= 0: unlimited): the reader for
// untrusted uploads. A binary header claiming more than maxBytes is
// ErrTooLarge before anything is allocated for it.
func Read(r io.Reader, maxBytes int64) (*matrix.CSR, error) {
	lr := LimitReader(r, maxBytes)
	n, exact := boundOf(lr)
	br := bufio.NewReader(lr)
	if magic, err := br.Peek(4); err == nil && binary.LittleEndian.Uint32(magic) == binaryMagic {
		return readBinary(br, n, exact)
	}
	return ReadMatrixMarket(br)
}
