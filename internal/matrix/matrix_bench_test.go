package matrix

import "testing"

func benchMatrix(b *testing.B, rows, cols int32, nnz int) *CSR {
	b.Helper()
	return randomCOO(1, rows, cols, nnz).ToCSR()
}

func BenchmarkToCSC(b *testing.B) {
	m := benchMatrix(b, 1<<16, 1<<16, 1<<20)
	b.SetBytes(m.NNZ() * BytesPerTuple)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ToCSC()
	}
}

func BenchmarkTranspose(b *testing.B) {
	m := benchMatrix(b, 1<<16, 1<<16, 1<<20)
	b.SetBytes(m.NNZ() * BytesPerTuple)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Transpose()
	}
}

func BenchmarkCOODedup(b *testing.B) {
	coo := randomCOO(2, 1<<16, 1<<16, 1<<20)
	b.SetBytes(int64(len(coo.Val)) * BytesPerTuple)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = coo.ToCSR()
	}
}

func BenchmarkFlops(b *testing.B) {
	m := benchMatrix(b, 1<<16, 1<<16, 1<<20)
	mc := m.ToCSC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Flops(mc, m) == 0 {
			b.Fatal("no flops")
		}
	}
}

func BenchmarkProductNNZ(b *testing.B) {
	m := benchMatrix(b, 1<<13, 1<<13, 1<<17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ProductNNZ(m, m) == 0 {
			b.Fatal("empty product")
		}
	}
}
