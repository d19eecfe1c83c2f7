package semiring

import "pbspgemm/internal/matrix"

// ReferenceOver is referenceOver for the package's external tests.
func ReferenceOver[T any](sr Semiring[T], a, b *CSRg[T], mask *matrix.CSR, complement bool) *CSRg[T] {
	return referenceOver(sr, a, b, mask, complement)
}
