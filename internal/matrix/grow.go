package matrix

// Grow-only buffer helpers shared by the pooled execution engines
// (internal/core's and internal/baseline's Workspaces) and this
// package's Into-style converters: return (*buf)[:n], reallocating only when
// capacity is short. Contents are unspecified unless the Zero variant is
// used.

// Grow returns (*buf)[:n] with unspecified contents, for any element type; a
// reallocation is zeroed.
func Grow[E any](buf *[]E, n int) []E {
	if cap(*buf) < n {
		*buf = make([]E, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// Refill returns a copy of src in *buf: in its storage when it holds src,
// else in a clone of exactly len(src), which, unlike Grow's make, is not
// zeroed before the copy overwrites it.
func Refill[E any](buf *[]E, src []E) []E {
	if cap(*buf) < len(src) {
		*buf = nil // append clones src
	}
	*buf = append((*buf)[:0], src...)
	return *buf
}

// GrowInt64Zero is Grow with the returned slice zeroed.
func GrowInt64Zero(buf *[]int64, n int) []int64 {
	s := Grow(buf, n)
	clear(s)
	return s
}
